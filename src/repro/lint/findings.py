"""The result vocabulary of the lint pass: findings and the rule protocol.

A :class:`Finding` is one violation of one rule at one source location;
rules yield them, skipping lines an inline suppression covers, and
whatever they yield fails the build (:mod:`repro.lint.runner`).
Everything here is deliberately free of numpy/engine imports so the
checker can parse the whole tree without executing any of it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:
    from .project import Project

__all__ = ["Finding", "Rule"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is the file's POSIX path relative to the lint root (the
    repository root in CI), so findings are stable across checkouts;
    ``line`` is 1-based.
    """

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        """The one-line ``path:line: [rule] message`` report form."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {"path": self.path, "line": self.line, "rule": self.rule,
                "message": self.message}


@runtime_checkable
class Rule(Protocol):
    """What the runner requires of a rule.

    ``rule_id`` is the stable kebab-case identifier used in reports and
    ``# repro: allow[rule-id]`` suppressions; ``summary`` is the
    one-liner ``repro lint --list-rules`` prints.  :meth:`check`
    receives the whole parsed :class:`~repro.lint.project.Project` —
    most rules iterate its modules independently, while cross-module
    rules (``protocol-drift``) correlate several files.
    """

    rule_id: str
    summary: str

    def check(self, project: "Project") -> Iterable[Finding]:
        """Yield every violation found in ``project``."""
        ...
