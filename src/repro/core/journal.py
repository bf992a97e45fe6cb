"""On-disk JSONL journal making interrupted campaigns resumable.

A journaled :meth:`FaultCampaign.run` appends one JSON line per completed
``(point, repeat)`` cell as results stream out of the executor.  If the
process dies mid-grid, rerunning with the same journal path replays the
recorded cells from disk and only evaluates the missing ones — the
resumed :class:`SweepResult` is bit-identical to an uninterrupted run
because accuracies round-trip exactly through ``repr``-based JSON floats
and the per-cell seeds are pure functions of the grid coordinates.

File layout: the first line is a header describing the campaign grid
(``xs``, ``repeats``, ``seed``, crossbar geometry, backend, layer
restriction, injection timing, and a fingerprint of the test-set
snapshot + model weights); every following line is a result cell::

    {"kind": "header", "version": 1, "xs": [0.0, 0.1], "repeats": 3, ...}
    {"point": 0, "repeat": 0, "x": 0.0, "accuracy": 0.9625}
    ...

Resuming validates the header against the requested grid and refuses to
mix journals across campaigns.  A torn final line (the process was killed
mid-write) is discarded with a warning and cut off the file, so the
resumed run appends on a line of its own.  The warning names the kind of
line torn: a torn cell is simply re-evaluated, while a torn event or
trace line loses no cell.  Corruption anywhere *before* the final line
is not a crash artifact of append-only writes and is refused outright.

Besides result cells, the journal records resilience events (worker
losses, retries, quarantined cells, executor degradations) as
``{"kind": "event", ...}`` note lines — an audit trail of what the
supervision layer did to complete the run.  When the campaign is
observed (:mod:`repro.obs`), closed trace spans are likewise persisted
as ``{"kind": "trace", ...}`` lines (rendered back by ``repro trace``).
Event and trace lines are ignored when resuming.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import warnings
from collections.abc import Callable
from pathlib import Path

__all__ = ["CampaignJournal"]

_VERSION = 1

#: header fields that must match for a journal to be resumed; the
#: fingerprint digests the test-set snapshot and model weights, so stale
#: data or a retrained model cannot silently mix into a resumed result
_GRID_KEYS = ("xs", "repeats", "seed", "rows", "cols", "layers", "backend",
              "continue_time", "specs", "fingerprint")


def _torn_tail_message(path: Path, line: str) -> str:
    """The warning for a torn final ``line``.  It names the kind of line
    that was torn, since only a torn cell line is re-evaluated: audit
    lines start with their ``kind``, cell lines with ``"point"``."""
    match = re.match(r'\{"kind": "(\w+)"', line)
    if match is not None:
        what = f"it was a {match.group(1)} line; no cell is lost"
    elif line.startswith('{"point"'):
        what = "it was a cell line; that cell will be re-evaluated"
    else:
        what = ("too little of it is left to tell its kind; a cell it "
                "held will be re-evaluated")
    return (f"journal {path} ends in a torn line (the writer died "
            f"mid-append); discarding it — {what}")


class CampaignJournal:
    """Append-only JSONL record of completed campaign cells.

    Parameters
    ----------
    path:
        Journal file; created (with its parent directory) on first use.
    header:
        Grid description; must contain the :data:`_GRID_KEYS` fields.
    fsync:
        When True, every appended line is also ``os.fsync``-ed so it
        survives an OS crash or power loss, not just a process kill.
        Off by default: an fsync per cell can dominate short campaigns,
        and a torn tail from a process kill is already recoverable.
    on_warning:
        Callable receiving non-fatal diagnostics (e.g. a torn trailing
        line being discarded).  ``None`` falls back to
        :func:`warnings.warn`.
    """

    def __init__(self, path, header: dict, *, fsync: bool = False,
                 on_warning: Callable[[str], None] | None = None):
        self.path = Path(path)
        self.header = {"kind": "header", "version": _VERSION, **header}
        self.fsync = fsync
        self.on_warning = on_warning
        #: cells already on disk: (point, repeat) -> accuracy
        self.completed: dict[tuple[int, int], float] = {}
        self._handle = None

    def _warn(self, message: str) -> None:
        if self.on_warning is not None:
            self.on_warning(message)
        else:
            warnings.warn(message, RuntimeWarning, stacklevel=3)

    # -- lifecycle -------------------------------------------------------
    def open(self) -> "CampaignJournal":
        """Load any existing cells, then open the file for appending.

        Returns
        -------
        CampaignJournal
            ``self``, with :attr:`completed` holding every
            ``(point, repeat) -> accuracy`` cell already on disk.

        Raises
        ------
        ValueError
            If the file exists but is not a campaign journal, or its
            header (grid, specs, data/weights fingerprint) does not match
            this campaign — mixed journals are refused, never merged.
        """
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        if not fresh:
            self._load_existing()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._write_line(self.header)
        return self

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignJournal":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- I/O -------------------------------------------------------------
    def _load_existing(self) -> None:
        # newline="": offsets into the text are the file's own
        with open(self.path, encoding="utf-8", newline="") as handle:
            text = handle.read()
        lines = text.splitlines()
        try:
            head = json.loads(lines[0])
        except (json.JSONDecodeError, IndexError) as error:
            raise ValueError(
                f"{self.path} is not a campaign journal "
                "(unreadable header line)") from error
        if head.get("kind") != "header":
            raise ValueError(f"{self.path} is not a campaign journal "
                             "(first line is not a header)")
        for key in _GRID_KEYS:
            if head.get(key) != self.header.get(key):
                raise ValueError(
                    f"journal {self.path} was written for a different "
                    f"campaign: {key}={head.get(key)!r} on disk vs "
                    f"{self.header.get(key)!r} requested")
        body = [(number, line) for number, line in
                enumerate(lines[1:], start=2) if line.strip()]
        complete = text
        for position, (number, line) in enumerate(body):
            try:
                cell = json.loads(line)
            except json.JSONDecodeError as error:
                if position == len(body) - 1:
                    # torn tail from a killed writer: warn, drop it
                    self._warn(_torn_tail_message(self.path, line))
                    complete = text[:text.rindex(line)]
                    break
                # mid-file damage is not an append-crash artifact: the
                # journal cannot be trusted, so refuse rather than guess
                raise ValueError(
                    f"journal {self.path} is corrupt at line {number} "
                    "(damage before the final line cannot come from an "
                    "interrupted append); refusing to resume from it"
                ) from error
            if "point" in cell and "repeat" in cell and "accuracy" in cell:
                self.completed[(cell["point"], cell["repeat"])] = \
                    cell["accuracy"]
        # the next append must start a line of its own: cut the torn
        # line off, and end a complete last line that lacks its newline
        if complete != text or not text.endswith("\n"):
            with open(self.path, "r+b") as handle:
                handle.truncate(len(complete.encode("utf-8")))
                if not complete.endswith("\n"):
                    handle.seek(0, os.SEEK_END)
                    handle.write(b"\n")
                if self.fsync:
                    os.fsync(handle.fileno())

    def _write_line(self, payload: dict) -> None:
        self._handle.write(json.dumps(payload) + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def record(self, point: int, repeat: int, x: float,
               accuracy: float) -> None:
        """Append one completed cell (flushed; fsync-ed when enabled).

        Accuracies round-trip exactly: Python floats serialize via
        ``repr`` (shortest round-trippable form), so a resumed
        :class:`SweepResult` is bit-identical to an uninterrupted run.
        """
        self.completed[(point, repeat)] = accuracy
        self._write_line({"point": point, "repeat": repeat,
                          "x": float(x), "accuracy": float(accuracy)})

    def note(self, record) -> None:
        """Append one resilience event (a dataclass record from
        :mod:`repro.core.resilience`) as an audit line.  Event lines are
        skipped when resuming — they describe *how* the run completed,
        not its results."""
        self._write_line({"kind": "event",
                          "event": type(record).__name__,
                          **dataclasses.asdict(record)})

    def trace(self, record) -> None:
        """Append one closed trace span (a
        :class:`repro.obs.spans.SpanRecord`) as an audit line.  Like
        event lines, trace lines are skipped when resuming; ``repro
        trace`` renders them back into a span timeline."""
        from ..obs.trace import span_payload
        self._write_line({"kind": "trace", **span_payload(record)})
