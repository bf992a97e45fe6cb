"""Model characteristics — the quantities of the paper's Table II.

For each model: parameter count, binarized fraction, serialized size
(binary weights cost 1 bit, everything else 32), and multiply-accumulate
operations per inference: the XNOR operations of the quantized conv and
dense layers, from their built shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..binary.layers import QuantLayer
from ..nn.model import Sequential

__all__ = ["ModelStats", "compute_stats", "format_count"]


@dataclass(frozen=True)
class ModelStats:
    """Table-II row for one model."""

    name: str
    params: int
    binary_params: int
    macs: int
    size_mb: float

    @property
    def binarized_percent(self) -> float:
        """Share of parameters stored as single bits."""
        if self.params == 0:
            return 0.0
        return 100.0 * self.binary_params / self.params

    def row(self) -> dict[str, object]:
        return {
            "model": self.name,
            "size_mb": round(self.size_mb, 3),
            "params": self.params,
            "macs": self.macs,
            "binarized_pct": round(self.binarized_percent, 2),
        }


def format_count(value: int) -> str:
    """Human-readable counts: 61.8M, 1.81B — the paper's notation."""
    for threshold, suffix in ((1e9, "B"), (1e6, "M"), (1e3, "K")):
        if value >= threshold:
            return f"{value / threshold:.3g}{suffix}"
    return str(value)


def compute_stats(model: Sequential) -> ModelStats:
    """Compute the Table-II quantities from a built model."""
    if not model.built:
        raise ValueError("model must be built to compute statistics")
    params = model.num_params()
    binary = sum(layer.binary_param_count()
                 for layer in model.layers_of_type(QuantLayer))
    # MACs need shapes: composite blocks expose their quantized layers
    # through sub_layers, each with its own built input shape
    macs = sum(layer.xnor_ops_per_image()
               for layer in model.layers_of_type(QuantLayer))
    size_bits = binary * 1 + (params - binary) * 32
    return ModelStats(
        name=model.name,
        params=params,
        binary_params=binary,
        macs=macs,
        size_mb=size_bits / 8 / 1e6,
    )
