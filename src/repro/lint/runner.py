"""Run the rules and report what they find.

:func:`run_lint` is the library entry point (used by the tests and the
docs snippet).  :func:`main` is the command line of both ``repro lint``
and ``python -m repro.lint`` — the flags are defined here, once — and
:func:`lint_command` its body, with the repository's uniform exit
codes:

* ``0`` — no findings;
* ``1`` — at least one finding (the build should fail);
* ``2`` — usage/validation error (unknown path, raised as
  :class:`LintUsageError`) **or** an unparsable checked file — the
  latter is also reported as a ``syntax-error`` finding so it shows up
  in ``--json`` artifacts instead of vanishing from the walk.

The only waiver is an inline ``# repro: allow[rule-id]`` comment, which
the rules honour themselves.  ``--changed`` scopes the run to the files
git reports as modified (versus ``HEAD`` or a given base ref) plus
untracked files, so the gate runs in seconds pre-commit while CI keeps
the full-tree run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO

from .findings import Finding, Rule
from .project import LintUsageError, load_project
from .rules import DEFAULT_RULES

__all__ = ["LintResult", "changed_files", "lint_command", "main",
           "run_lint"]

#: what a bare ``repro lint`` scans, relative to the root
DEFAULT_PATHS = ("src", "tests")
#: pseudo-rule id for unparsable checked files (exit 2)
SYNTAX_RULE = "syntax-error"


@dataclass
class LintResult:
    """Everything one lint pass determined."""

    #: findings that fail the build (those not suppressed inline)
    findings: list[Finding] = field(default_factory=list)
    #: number of files parsed
    files: int = 0
    #: number of checked files the parser rejected
    syntax_errors: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def run_lint(paths: Sequence[Path | str], root: Path | str | None = None,
             rules: Sequence[Rule] = DEFAULT_RULES) -> LintResult:
    """Lint ``paths`` (files or directories) against ``rules``.

    ``root`` anchors the relative paths that rules and suppressions are
    keyed on; it defaults to the current working directory.  Inline
    ``# repro: allow[rule-id]`` suppressions are honored inside the
    rules themselves.  A checked file that fails to parse becomes a
    ``syntax-error`` finding — never a silent skip.
    """
    root = Path(root) if root is not None else Path.cwd()
    project = load_project([Path(p) for p in paths], root)
    findings: list[Finding] = [
        Finding(path=failure.relpath, line=failure.line, rule=SYNTAX_RULE,
                message=f"cannot parse file: {failure.message}; the rules "
                        "did not run on it")
        for failure in project.failures]
    for rule in rules:
        findings.extend(rule.check(project))
    return LintResult(findings=sorted(findings), files=len(project.modules),
                      syntax_errors=len(project.failures))


def changed_files(root: Path, base: str = "HEAD") -> list[Path]:
    """Python files git reports as changed versus ``base``, plus
    untracked ones — the ``--changed`` scope."""
    commands = (["git", "diff", "--name-only", "-z", base, "--"],
                ["git", "ls-files", "--others", "--exclude-standard", "-z"])
    names: set[str] = set()
    for command in commands:
        try:
            proc = subprocess.run(command, cwd=root, capture_output=True,
                                  text=True, check=True)
        except (OSError, subprocess.CalledProcessError) as error:
            detail = (error.stderr.strip()
                      if isinstance(error, subprocess.CalledProcessError)
                      and error.stderr else str(error))
            raise LintUsageError(
                f"--changed needs a git checkout at {root}: "
                f"{detail}") from error
        names.update(part for part in proc.stdout.split("\0") if part)
    return sorted(root / name for name in names
                  if name.endswith(".py") and (root / name).is_file())


def lint_command(paths: Sequence[str] = (), *,
                 root: Path | str | None = None,
                 list_rules: bool = False,
                 json_output: bool = False,
                 changed: str | None = None,
                 rules: Sequence[Rule] = DEFAULT_RULES,
                 stdout: TextIO | None = None) -> int:
    """The ``repro lint`` subcommand body; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    if list_rules:
        for rule in rules:
            print(f"{rule.rule_id:24s} {rule.summary}", file=out)
        return 0
    root = Path(root) if root is not None else Path.cwd()
    if changed is not None:
        if paths:
            raise LintUsageError(
                "--changed computes the file list from git; explicit "
                "paths cannot be combined with it")
        scan: list[Path] = changed_files(root, changed)
        if not scan:
            print(f"no python files changed vs {changed}: OK", file=out)
            return 0
    else:
        scan = ([Path(p) for p in paths] if paths
                else [root / p for p in DEFAULT_PATHS
                      if (root / p).exists()])
    if not scan:
        raise LintUsageError(
            f"nothing to lint: no paths given and {root} contains none of "
            f"{'/'.join(DEFAULT_PATHS)}")
    result = run_lint(scan, root=root, rules=rules)
    if json_output:
        payload = {
            "files": result.files,
            "syntax_errors": result.syntax_errors,
            "findings": [f.to_dict() for f in result.findings],
        }
        print(json.dumps(payload, indent=2), file=out)
        return _exit_code(result)
    for finding in result.findings:
        print(finding.render(), file=out)
    print(f"checked {result.files} files: "
          + ("OK" if result.ok else f"{len(result.findings)} finding(s)"),
          file=out)
    return _exit_code(result)


def _exit_code(result: LintResult) -> int:
    if result.syntax_errors:
        return 2
    return 0 if result.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """``repro lint`` / ``python -m repro.lint`` (argparse + exit
    codes)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based invariant checker for the repro codebase")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(default: src/ and tests/ under --root)")
    parser.add_argument("--root", default=None, metavar="DIR",
                        help="repository root that relative paths and "
                             "per-module rules are keyed on (default: "
                             "cwd)")
    parser.add_argument("--changed", nargs="?", const="HEAD", default=None,
                        metavar="BASE",
                        help="lint only python files git reports changed "
                             "vs BASE (default HEAD) plus untracked ones")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable findings on stdout")
    args = parser.parse_args(argv)
    try:
        return lint_command(args.paths, root=args.root,
                            list_rules=args.list_rules,
                            json_output=args.json,
                            changed=args.changed)
    except LintUsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
