"""What the :mod:`repro.api` catalog builds the paper's §IV evaluation
from: test sets and trained models (:mod:`.common`), the Fig. 4 and
Fig. 5 sweep axes, Fig. 4f's runtime protocol and the tables.  The
catalog runs every sweep itself."""

from . import common, fig4, fig5, tables
from .common import (get_imagenet, get_mnist, trained_lenet,
                     trained_zoo_model)

__all__ = ["common", "fig4", "fig5", "tables",
           "get_mnist", "get_imagenet", "trained_lenet", "trained_zoo_model"]
