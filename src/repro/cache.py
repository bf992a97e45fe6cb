"""The on-disk cache directory.

Trained weights (:mod:`repro.experiments.common`) and the compiled
XNOR/popcount kernel (:mod:`repro.binary.native`) live here: the
``REPRO_CACHE_DIR`` environment variable, or ``<repo>/artifacts/cache``.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["cache_dir"]


def cache_dir() -> Path:
    """The cache directory (created on demand)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        path = Path(env)
    else:
        repo = Path(__file__).resolve().parents[2]
        path = repo / "artifacts" / "cache"
    path.mkdir(parents=True, exist_ok=True)
    return path
