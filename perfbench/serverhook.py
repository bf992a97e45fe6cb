"""Benchmark hooks inside a ``repro serve`` process.

Loaded with ``repro serve --preload serverhook`` (``perfbench`` on
``PYTHONPATH``); importing it is the whole contract:

* ``PERFBENCH_TINY=1`` swaps in the self-test's tiny MNIST split;
* ``PERFBENCH_TRACE_OUT=<path>`` installs the per-layer
  :class:`~tracing.Tracer` for the server's lifetime.  When the server
  exits it writes ``{"setup": ..., "total": ...}`` to ``<path>``: the
  totals when the first run (the set-up's warm-up job) returned, and at
  exit, so ``run.py`` can tell set-up from the timed jobs.
"""

from __future__ import annotations

import atexit
import json
import os

import workloads
from tracing import Tracer

if os.environ.get("PERFBENCH_TINY") == "1":
    workloads.use_tiny_dataset()

if os.environ.get("PERFBENCH_TRACE_OUT"):
    from repro.api.handle import RunHandle

    _TRACER = Tracer().install()
    _SETUP: list[dict] = []
    _traced_run = RunHandle.run

    def _run_marking_setup(handle):
        try:
            return _traced_run(handle)
        finally:
            if not _SETUP:
                _SETUP.append(dict(_TRACER.values))

    def _dump(path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"setup": _SETUP[0] if _SETUP else {},
                       "total": _TRACER.values}, handle)

    RunHandle.run = _run_marking_setup
    atexit.register(_dump, os.environ["PERFBENCH_TRACE_OUT"])
