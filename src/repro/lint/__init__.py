"""``repro.lint`` — AST-based invariant checker for this repository.

Mechanically enforces the contracts the reproduction's trustworthiness
rests on: seeded-RNG determinism, typed failure routing, frozen
protocol records, and one event vocabulary that every consumer knows
(``protocol-drift``).
Since PR 10 the determinism and ordering rules are *flow-sensitive*: they
reason over intraprocedural CFGs (:mod:`repro.lint.cfg`) with reaching
definitions and taint propagation (:mod:`repro.lint.flow`), so a
violation is a provable path, not a missing keyword nearby.
See ``docs/static-analysis.md`` for the rule catalog and the
``# repro: allow[rule-id]`` suppression syntax; run it as ``repro
lint`` or ``python -m repro.lint``.

The package deliberately has no numpy/engine dependencies — it parses
the tree with :mod:`ast` and never imports the code under check.
"""

from __future__ import annotations

from .cfg import CFG, CFGNode, build_cfg, iter_scopes
from .findings import Finding, Rule
from .flow import propagate_taint, reaching_definitions, use_def
from .project import (LintUsageError, Module, ParseFailure, Project,
                      load_project)
from .rules import (DEFAULT_RULES, FrozenRecords, JournalOrder, NoGlobalRng,
                    NoSilentExcept, NoWallClock, ObsPickleBoundary,
                    ProtocolDrift, RngTaint, UnboundedQueue)
from .runner import LintResult, changed_files, lint_command, main, run_lint

__all__ = [
    "CFG",
    "CFGNode",
    "DEFAULT_RULES",
    "Finding",
    "FrozenRecords",
    "JournalOrder",
    "LintResult",
    "LintUsageError",
    "Module",
    "NoGlobalRng",
    "NoSilentExcept",
    "NoWallClock",
    "ObsPickleBoundary",
    "ParseFailure",
    "Project",
    "ProtocolDrift",
    "RngTaint",
    "Rule",
    "UnboundedQueue",
    "build_cfg",
    "changed_files",
    "iter_scopes",
    "lint_command",
    "load_project",
    "main",
    "propagate_taint",
    "reaching_definitions",
    "run_lint",
    "use_def",
]
