"""Per-figure experiment helpers (the paper's §IV evaluation), run
through the :mod:`repro.api` catalog."""

from . import common, fig4, fig5, tables
from .common import (get_imagenet, get_mnist, trained_lenet,
                     trained_zoo_model)

__all__ = ["common", "fig4", "fig5", "tables",
           "get_mnist", "get_imagenet", "trained_lenet", "trained_zoo_model"]
