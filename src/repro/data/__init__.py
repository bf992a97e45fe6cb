"""Synthetic dataset substrates (no-network substitutes).

* :mod:`repro.data.synth_mnist` — stroke-rendered 28×28 digits standing in
  for MNIST (layer-resilience study, Fig. 4);
* :mod:`repro.data.synth_imagenet` — procedural 10-class 32×32 RGB
  texture/shape task standing in for ImageNet (model-resilience study,
  Fig. 5 / Table II).
"""

from . import synth_imagenet, synth_mnist
from .datasets import Dataset, LazyDataset
from .synth_imagenet import load_synth_imagenet
from .synth_mnist import lazy_synth_mnist, load_synth_mnist

__all__ = ["Dataset", "LazyDataset", "lazy_synth_mnist", "load_synth_mnist",
           "load_synth_imagenet", "synth_mnist", "synth_imagenet"]
