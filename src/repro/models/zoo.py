"""The nine Table-II architectures, scaled to the synthetic ImageNet task.

Every family keeps its distinguishing mechanism — plain deep stacks
(BinaryAlexNet), magnitude-aware gains (XNOR-Net), identity shortcuts
(BinaryResNetE18), ApproxSign shortcuts (Bi-Real Net), re-scaled residuals
(RealToBinaryNet), dense concatenation at three depths (BinaryDenseNet
28/37/45) and dense+improvement pairs (MeliusNet22) — because those
mechanisms are what drive the resilience differences Fig. 5 measures.
Channel counts are scaled down so each model trains on CPU in well under
a minute; ``repro run table2`` prints paper-vs-measured stats.
"""

from __future__ import annotations

from .. import nn
from ..binary import MagnitudeAwareSign, QuantConv2D, QuantDense
from .blocks import (DenseBinaryBlock, ImprovementBlock, RealToBinaryBlock,
                     ResidualBinaryBlock)

__all__ = ["MODEL_BUILDERS", "MODEL_PAPER_STATS", "build_model", "model_names"]

INPUT_SHAPE = (32, 32, 3)
NUM_CLASSES = 10


def _stem(width: int) -> list:
    """Full-precision stem conv (CMOS) + batch-norm, shared by every model.

    Keeping the first layer real-valued is standard BNN practice (Bi-Real,
    BinaryDenseNet, ...) and is what puts the paper's Table-II binarized
    fractions in the 90-97% band rather than ~100%.
    """
    return [
        QuantConv2D(width, 3, padding="same", kernel_quantizer=None,
                    use_bias=True, name="stem"),
        nn.BatchNorm(),
    ]


def _head(num_classes: int = NUM_CLASSES) -> list:
    """Binary classifier head: global pooling + mapped dense + BN logits."""
    return [
        nn.GlobalAvgPool2D(),
        QuantDense(num_classes, input_quantizer="ste_sign",
                   kernel_quantizer="ste_sign", name="classifier"),
        nn.BatchNorm(),
    ]


def build_binary_alexnet(seed: int = 0) -> nn.Sequential:
    """Plain deep binary stack — no shortcuts, the least protected family."""
    model = nn.Sequential(
        _stem(16) + [
            QuantConv2D(32, 3, padding="same", input_quantizer="ste_sign",
                        kernel_quantizer="ste_sign", name="conv1"),
            nn.MaxPool2D(2), nn.BatchNorm(),
            QuantConv2D(48, 3, padding="same", input_quantizer="ste_sign",
                        kernel_quantizer="ste_sign", name="conv2"),
            nn.MaxPool2D(2), nn.BatchNorm(),
            QuantConv2D(64, 3, padding="same", input_quantizer="ste_sign",
                        kernel_quantizer="ste_sign", name="conv3"),
            nn.MaxPool2D(2), nn.BatchNorm(),
            nn.Flatten(),
            QuantDense(96, input_quantizer="ste_sign",
                       kernel_quantizer="ste_sign", name="dense0"),
            nn.BatchNorm(),
            QuantDense(NUM_CLASSES, input_quantizer="ste_sign",
                       kernel_quantizer="ste_sign", name="dense1"),
            nn.BatchNorm(),
        ], name="binary_alexnet")
    return model.build(INPUT_SHAPE, seed=seed)


def build_xnornet(seed: int = 0) -> nn.Sequential:
    """AlexNet-style stack with XNOR-Net's magnitude-aware weight gains."""
    model = nn.Sequential(
        _stem(16) + [
            QuantConv2D(32, 3, padding="same", input_quantizer="ste_sign",
                        kernel_quantizer=MagnitudeAwareSign(), name="conv1"),
            nn.MaxPool2D(2), nn.BatchNorm(),
            QuantConv2D(48, 3, padding="same", input_quantizer="ste_sign",
                        kernel_quantizer=MagnitudeAwareSign(), name="conv2"),
            nn.MaxPool2D(2), nn.BatchNorm(),
            QuantConv2D(64, 3, padding="same", input_quantizer="ste_sign",
                        kernel_quantizer=MagnitudeAwareSign(), name="conv3"),
            nn.MaxPool2D(2), nn.BatchNorm(),
            nn.Flatten(),
            QuantDense(96, input_quantizer="ste_sign",
                       kernel_quantizer=MagnitudeAwareSign(), name="dense0"),
            nn.BatchNorm(),
            QuantDense(NUM_CLASSES, input_quantizer="ste_sign",
                       kernel_quantizer="ste_sign", name="dense1"),
            nn.BatchNorm(),
        ], name="xnornet")
    return model.build(INPUT_SHAPE, seed=seed)


def _residual_backbone(block_fn, name: str, seed: int,
                       widths=(16, 32, 64), blocks_per_stage=2) -> nn.Sequential:
    layers = _stem(widths[0])
    for stage, width in enumerate(widths):
        for index in range(blocks_per_stage):
            layers.append(block_fn(width, name=f"block{stage}_{index}"))
        if stage < len(widths) - 1:
            layers.append(nn.MaxPool2D(2))
    layers += _head()
    return nn.Sequential(layers, name=name).build(INPUT_SHAPE, seed=seed)


def build_binary_resnet_e18(seed: int = 0) -> nn.Sequential:
    """ResNetE: binary residual blocks with zero-padded shortcuts."""
    return _residual_backbone(
        lambda width, name: ResidualBinaryBlock(width, name=name),
        "binary_resnet_e18", seed)


def build_birealnet(seed: int = 0) -> nn.Sequential:
    """Bi-Real Net: per-conv identity shortcuts + ApproxSign activations."""
    return _residual_backbone(
        lambda width, name: ResidualBinaryBlock(
            width, input_quantizer="approx_sign", name=name),
        "birealnet", seed)


def build_real_to_binary(seed: int = 0) -> nn.Sequential:
    """Real-to-Binary: residual blocks with real-valued channel re-scaling."""
    return _residual_backbone(
        lambda width, name: RealToBinaryBlock(width, name=name),
        "real_to_binary", seed)


def _densenet(name: str, blocks_per_stage: int, seed: int,
              growth: int = 12, stages: int = 3, stem_width: int = 16
              ) -> nn.Sequential:
    layers = _stem(stem_width)
    block = 0
    for stage in range(stages):
        for _ in range(blocks_per_stage):
            layers.append(DenseBinaryBlock(growth, name=f"dense_block{block}"))
            block += 1
        if stage < stages - 1:
            layers.append(nn.AvgPool2D(2))
    layers += _head()
    return nn.Sequential(layers, name=name).build(INPUT_SHAPE, seed=seed)


def build_binary_densenet28(seed: int = 0) -> nn.Sequential:
    return _densenet("binary_densenet28", blocks_per_stage=2, seed=seed)


def build_binary_densenet37(seed: int = 0) -> nn.Sequential:
    return _densenet("binary_densenet37", blocks_per_stage=3, seed=seed)


def build_binary_densenet45(seed: int = 0) -> nn.Sequential:
    return _densenet("binary_densenet45", blocks_per_stage=4, seed=seed)


def build_meliusnet22(seed: int = 0) -> nn.Sequential:
    """MeliusNet: dense block (+growth) then improvement block (refine)."""
    growth = 12
    layers = _stem(16)
    block = 0
    for stage in range(3):
        for _ in range(2):
            layers.append(DenseBinaryBlock(growth, name=f"melius_dense{block}"))
            layers.append(ImprovementBlock(growth, name=f"melius_improve{block}"))
            block += 1
        if stage < 2:
            layers.append(nn.AvgPool2D(2))
    layers += _head()
    return nn.Sequential(layers, name="meliusnet22").build(INPUT_SHAPE, seed=seed)


#: builder registry keyed by the names used throughout the experiments
MODEL_BUILDERS = {
    "binary_densenet45": build_binary_densenet45,
    "binary_densenet37": build_binary_densenet37,
    "binary_densenet28": build_binary_densenet28,
    "binary_resnet_e18": build_binary_resnet_e18,
    "real_to_binary": build_real_to_binary,
    "binary_alexnet": build_binary_alexnet,
    "meliusnet22": build_meliusnet22,
    "birealnet": build_birealnet,
    "xnornet": build_xnornet,
}

#: paper Table II reference values: top-1 %, size MB, params, MACs, binarized %
MODEL_PAPER_STATS = {
    "real_to_binary": (65.0, 5.13, "12M", "1.81B", 92.39),
    "binary_densenet45": (65.0, 7.54, "13.9M", "6.67B", 96.34),
    "binary_densenet37": (62.9, 5.25, "8.7M", "4.71B", 96.76),
    "binary_densenet28": (60.9, 4.12, "5.13M", "3.79B", 94.66),
    "binary_resnet_e18": (58.3, 4.03, "11.7M", "1.81B", 92.4),
    "binary_alexnet": (36.3, 7.49, "61.8M", "841M", 91.34),
    "meliusnet22": (62.9, 3.88, "6.94M", "4.76B", 97.14),
    "birealnet": (57.5, 4.03, "11.7M", "1.81B", 92.4),
    "xnornet": (45.0, 22.81, "62.4M", "1.14B", 90.05),
}


def model_names() -> list[str]:
    return list(MODEL_BUILDERS)


def build_model(name: str, seed: int = 0) -> nn.Sequential:
    """Build a zoo model by name."""
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; known: {model_names()}") from None
    return builder(seed=seed)
