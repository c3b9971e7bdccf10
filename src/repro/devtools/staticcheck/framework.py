"""The detlint checker harness: sources, scoping, suppressions, the walk.

The framework knows nothing about the project's specific contracts; it
provides the machinery every rule shares:

* :class:`ModuleSource` — a parsed Python file (text, AST, suppression
  table) handed to per-module checkers;
* the :class:`Checker` protocol — a rule that inspects one parsed
  module at a time;
* :class:`RuleScope` — per-path rule configuration as include/exclude
  repository-relative prefixes, so e.g. wall-clock reads are banned in
  ``src/repro/simulation`` but fine in ``benchmarks``;
* inline suppressions — a ``# detlint: ignore[rule]`` (or a bare
  ``# detlint: ignore``) comment on the flagged line silences it;
* :func:`run_detlint` — walk the selected paths, run every applicable
  checker, and return the surviving findings sorted.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Protocol, Sequence, runtime_checkable

from repro.devtools.reporting import Finding

__all__ = [
    "Checker",
    "DEFAULT_PATHS",
    "ModuleSource",
    "RuleScope",
    "load_module",
    "parse_suppressions",
    "run_detlint",
]

#: the paths a bare invocation lints (the acceptance surface)
DEFAULT_PATHS: tuple[str, ...] = ("src", "benchmarks", "examples")

#: directories never scanned (generated output, caches, VCS internals)
SKIP_DIR_NAMES = frozenset(
    {"__pycache__", ".git", ".ruff_cache", ".pytest_cache", "output", "api"}
)

#: ``# detlint: ignore`` or ``# detlint: ignore[rule-a,rule-b]``
_SUPPRESSION = re.compile(
    r"#\s*detlint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\- ]+)\])?"
)


@dataclass(frozen=True)
class RuleScope:
    """Where a rule applies, as repository-relative path prefixes.

    A module is in scope when its posix relative path starts with any
    ``include`` prefix and with no ``exclude`` prefix.  The default
    scope (empty include prefix) matches everything scanned.
    """

    include: tuple[str, ...] = ("",)
    exclude: tuple[str, ...] = ()

    def applies(self, relpath: str) -> bool:
        """True when ``relpath`` falls under this scope."""
        if any(relpath.startswith(prefix) for prefix in self.exclude):
            return False
        return any(relpath.startswith(prefix) for prefix in self.include)


@dataclass(frozen=True)
class ModuleSource:
    """One parsed Python source file, ready for per-module checkers."""

    path: Path
    relpath: str
    text: str
    tree: ast.Module
    #: line -> suppressed rule ids; ``None`` value = every rule suppressed
    suppressions: dict[int, frozenset[str] | None] = field(default_factory=dict)

    def suppressed(self, line: int, rule: str) -> bool:
        """True when ``rule`` is silenced on ``line`` by an inline comment."""
        if line not in self.suppressions:
            return False
        rules = self.suppressions[line]
        return rules is None or rule in rules


@runtime_checkable
class Checker(Protocol):
    """A per-module rule: inspect one parsed file, yield findings."""

    rule: str
    description: str
    scope: RuleScope

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        """Findings for ``module`` (already known to be in scope)."""
        ...  # pragma: no cover - protocol


def parse_suppressions(text: str) -> dict[int, frozenset[str] | None]:
    """The per-line suppression table of a source file.

    Keys are 1-based line numbers carrying a ``# detlint: ignore``
    comment; the value is the frozenset of silenced rule ids, or ``None``
    when the bare form silences every rule on that line.
    """
    table: dict[int, frozenset[str] | None] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        match = _SUPPRESSION.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            table[number] = None
        else:
            table[number] = frozenset(
                name.strip() for name in rules.split(",") if name.strip()
            )
    return table


def load_module(root: Path, path: Path) -> ModuleSource | Finding:
    """Parse ``path`` into a :class:`ModuleSource`.

    A file that cannot be read or parsed returns a ``parse-error``
    finding instead — a broken file must fail the lint run, not dodge it.
    """
    relpath = path.relative_to(root).as_posix()
    try:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
    except (OSError, SyntaxError, ValueError) as exc:
        line = getattr(exc, "lineno", 0) or 0
        return Finding(
            file=relpath, line=line, rule="parse-error", message=str(exc)
        )
    return ModuleSource(
        path=path,
        relpath=relpath,
        text=text,
        tree=tree,
        suppressions=parse_suppressions(text),
    )


def iter_python_files(root: Path, paths: Sequence[str]) -> list[Path]:
    """Every ``.py`` file under the selected paths, skipping generated dirs."""
    seen: set[Path] = set()
    ordered: list[Path] = []
    for selector in paths:
        target = root / selector
        if target.is_file() and target.suffix == ".py":
            candidates: Iterable[Path] = [target]
        elif target.is_dir():
            candidates = sorted(target.rglob("*.py"))
        else:
            continue
        for candidate in candidates:
            relative = candidate.relative_to(root)
            if any(part in SKIP_DIR_NAMES for part in relative.parts[:-1]):
                continue
            if candidate not in seen:
                seen.add(candidate)
                ordered.append(candidate)
    return ordered


def run_detlint(
    root: Path,
    paths: Sequence[str] | None = None,
    checkers: Sequence[Checker] | None = None,
) -> list[Finding]:
    """Run every applicable checker over the selected paths.

    ``paths`` are repository-relative files or directories (default:
    :data:`DEFAULT_PATHS`).  Each checker sees the files its
    :class:`RuleScope` admits.  Inline suppressions are filtered out
    before the sorted findings return.
    """
    from repro.devtools.staticcheck.rules import all_checkers

    root = root.resolve()
    paths = list(paths) if paths else list(DEFAULT_PATHS)
    active = list(checkers) if checkers is not None else all_checkers()

    findings: list[Finding] = []
    for path in iter_python_files(root, paths):
        loaded = load_module(root, path)
        if isinstance(loaded, Finding):
            findings.append(loaded)
            continue
        for checker in active:
            if not checker.scope.applies(loaded.relpath):
                continue
            for finding in checker.check_module(loaded):
                if not loaded.suppressed(finding.line, finding.rule):
                    findings.append(finding)
    return sorted(findings)
