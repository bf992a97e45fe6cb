"""Parsed source model the rules run against.

A :class:`Project` is a set of parsed :class:`Module` objects rooted at
one directory (the repository root).  Each module carries its AST, a
parent map (``ast`` has no uplinks), the module's import-alias table for
resolving dotted call targets to canonical names (``np.random.rand`` →
``numpy.random.rand``), and the per-line ``# repro: allow[rule-id]``
suppression table.

Loading never imports the scanned code — everything is :func:`ast.parse`
on file text, so the checker is safe to run on broken or
dependency-missing trees.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["LintUsageError", "Module", "ParseFailure", "Project",
           "load_project"]

#: ``# repro: allow[rule-a]`` / ``# repro: allow[rule-a, rule-b]`` /
#: ``# repro: allow[*]``
_ALLOW = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s*-]+)\]")


class LintUsageError(ValueError):
    """A problem with the invocation itself (missing path, unparsable
    file, malformed baseline) — exit code 2, like every other CLI
    validation error."""


@dataclass
class Module:
    """One parsed source file plus the lookup structures rules need."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    #: line number -> rule ids allowed on that line ("*" allows all)
    allow: dict[int, frozenset[str]] = field(default_factory=dict)
    #: child AST node -> parent AST node (module-wide)
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)
    #: local name -> canonical dotted module/attribute path
    aliases: dict[str, str] = field(default_factory=dict)

    def suppressed(self, line: int, rule_id: str) -> bool:
        """Whether ``rule_id`` is allowed at ``line`` (same-line comment
        or a comment-only line directly above)."""
        for ids in (self.allow.get(line), self.allow.get(-line)):
            if ids is not None and (rule_id in ids or "*" in ids):
                return True
        return False

    def resolve(self, node: ast.AST) -> str | None:
        """Canonical dotted name of a ``Name``/``Attribute`` chain.

        Returns ``None`` for anything whose base is not a plain name
        with a known import alias — a local variable that merely shadows
        a module name never resolves, so rules keyed on canonical names
        cannot false-positive on it.
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = current.id
        canonical = self.aliases.get(base)
        if canonical is None:
            return None
        parts.append(canonical)
        return ".".join(reversed(parts))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module node."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def enclosing(self, node: ast.AST,
                  kinds: tuple[type, ...]) -> ast.AST | None:
        """The nearest ancestor of one of ``kinds``, or ``None``."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, kinds):
                return ancestor
        return None


@dataclass(frozen=True)
class ParseFailure:
    """A checked file the parser rejected — reported, never skipped."""

    relpath: str
    line: int
    message: str


@dataclass
class Project:
    """Every module of one lint run, addressable by relative path."""

    root: Path
    modules: list[Module] = field(default_factory=list)
    #: files that failed to parse; the runner turns these into findings
    failures: list[ParseFailure] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_relpath = {module.relpath: module
                            for module in self.modules}

    def get(self, relpath: str) -> Module | None:
        return self._by_relpath.get(relpath)


def _collect_aliases(tree: ast.Module) -> dict[str, str]:
    """Import-alias table, including imports nested inside functions
    (lazy imports)."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.partition(".")[0]
                target = name.name if name.asname else local
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for name in node.names:
                if name.name == "*":
                    continue
                local = name.asname or name.name
                aliases[local] = f"{node.module}.{name.name}"
    return aliases


def _collect_allows(source: str) -> dict[int, frozenset[str]]:
    """Per-line suppression table.

    A suppression on a code line covers that line; a suppression on a
    comment-only line covers the *next* line (stored negated so
    :meth:`Module.suppressed` can distinguish without re-reading the
    source).
    """
    allow: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _ALLOW.search(text)
        if match is None:
            continue
        ids = frozenset(part.strip() for part in match.group(1).split(",")
                        if part.strip())
        if text.lstrip().startswith("#"):
            allow[-(lineno + 1)] = ids
        else:
            allow[lineno] = ids
    return allow


def _build_parents(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def parse_module(path: Path, root: Path) -> Module:
    """Parse one file into a :class:`Module` (no code execution).

    Raises :class:`SyntaxError` on an unparsable file —
    :func:`load_project` converts that into a :class:`ParseFailure`
    so a broken file is a reported fact of the run, never a silent
    skip.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return Module(path=path, relpath=_relpath(path, root), source=source,
                  tree=tree, allow=_collect_allows(source),
                  parents=_build_parents(tree),
                  aliases=_collect_aliases(tree))


def _iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py")
                              if "__pycache__" not in p.parts)
        elif path.is_file():
            yield path
        else:
            raise LintUsageError(f"no such file or directory: {path}")


def load_project(paths: Sequence[Path], root: Path) -> Project:
    """Parse every ``.py`` file under ``paths`` into a :class:`Project`
    rooted at ``root`` (paths are deduplicated, order-stable)."""
    seen: set[Path] = set()
    modules: list[Module] = []
    failures: list[ParseFailure] = []
    for path in _iter_python_files(paths):
        resolved = path.resolve()
        if resolved in seen:
            continue
        seen.add(resolved)
        try:
            modules.append(parse_module(path, root))
        except SyntaxError as error:
            failures.append(ParseFailure(
                relpath=_relpath(path, root),
                line=error.lineno or 1,
                message=error.msg or "invalid syntax"))
    return Project(root=root, modules=modules, failures=failures)
