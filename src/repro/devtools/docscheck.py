"""Documentation-suite checks: links, cross-references, docstrings.

The library backend of ``scripts/check_docs.py`` (a thin CI shim), run
in the tier-1 suite via ``tests/test_docs.py``.  It keeps the docs from
rotting:

* every relative markdown link in ``README.md`` and ``docs/*.md``
  resolves to an existing file;
* every backticked repository path (``src/repro/...``,
  ``simulation/lifecycle.py``, ...) exists — generated artifacts under
  ``benchmarks/output``/``docs/api`` and friends are exempt;
* every backticked dotted reference (``repro.simulation.engine``,
  ``repro.orchestration.run_batch``) imports, either as a module or as
  an attribute of one;
* every ``--flag`` mentioned on a documented ``python -m repro`` /
  ``repro-p2pstream`` command line exists on some CLI subcommand, and
  every documented subcommand is real;
* every public symbol exported by ``repro.__all__`` and every public
  module has a docstring, so the ``pdoc`` API reference renders without
  blank pages.

All problems surface as :class:`~repro.devtools.reporting.Finding`
objects under the shared exit-code convention.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import pkgutil
import re
import sys
from pathlib import Path

from repro.devtools.reporting import Finding, report

__all__ = [
    "DOC_FILES",
    "check_api_docstrings",
    "check_cli_references",
    "check_markdown",
    "cli_vocabulary",
    "documented_cli_lines",
    "dotted_reference_resolves",
    "is_generated",
    "iter_doc_files",
    "main",
    "resolve_repo_path",
]

#: markdown files the checker owns
DOC_FILES = ("README.md", "docs/ARCHITECTURE.md", "docs/EXPERIMENTS.md")

#: path prefixes that are generated at runtime, not committed
GENERATED_PREFIXES = (
    "benchmarks/output",
    "docs/api",
    "cache",
    "results",
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)#][^)]*)\)")
_CODE = re.compile(r"`([^`]+)`")
_PATHLIKE = re.compile(r"^[\w./-]+\.(py|md|json|txt|yml)$")
_DOTTED = re.compile(r"^repro(\.\w+)+$")
_FLAG = re.compile(r"--[a-z][a-z0-9-]*")


def iter_doc_files(root: Path):
    """The owned markdown files that exist under ``root``."""
    for name in DOC_FILES:
        path = root / name
        if path.exists():
            yield path


def is_generated(path_text: str) -> bool:
    """True for paths generated at runtime (exempt from existence checks)."""
    return any(path_text.startswith(prefix) for prefix in GENERATED_PREFIXES)


def resolve_repo_path(root: Path, doc: Path, text: str) -> bool:
    """A backticked or linked path may be repo-rooted, package-rooted or
    doc-relative."""
    candidates = [root / text, root / "src" / "repro" / text, doc.parent / text]
    return any(candidate.exists() for candidate in candidates)


def _line_of(text: str, position: int) -> int:
    """1-based line number of a character offset in ``text``."""
    return text.count("\n", 0, position) + 1


def check_markdown(root: Path) -> list[Finding]:
    """Link targets, path references and dotted references in the docs."""
    findings: list[Finding] = []
    for doc in iter_doc_files(root):
        text = doc.read_text(encoding="utf-8")
        relative = doc.relative_to(root).as_posix()
        for match in _LINK.finditer(text):
            target = match.group(1).strip()
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target = target.split("#", 1)[0]
            if not target or is_generated(target):
                continue
            if not resolve_repo_path(root, doc, target):
                findings.append(Finding(
                    file=relative, line=_line_of(text, match.start()),
                    rule="doc-link",
                    message=f"broken link target {target!r}",
                ))
        for match in _CODE.finditer(text):
            token = match.group(1).strip()
            if _PATHLIKE.match(token) and "/" in token:
                if is_generated(token):
                    continue
                if not resolve_repo_path(root, doc, token):
                    findings.append(Finding(
                        file=relative, line=_line_of(text, match.start()),
                        rule="doc-path",
                        message=f"referenced path {token!r} does not exist",
                    ))
            elif _DOTTED.match(token):
                if not dotted_reference_resolves(token):
                    findings.append(Finding(
                        file=relative, line=_line_of(text, match.start()),
                        rule="doc-reference",
                        message=f"dotted reference {token!r} does not import",
                    ))
    return findings


def dotted_reference_resolves(dotted: str) -> bool:
    """True when ``dotted`` is an importable module or a module attribute."""
    try:
        if importlib.util.find_spec(dotted) is not None:
            return True
    except (ImportError, ModuleNotFoundError, ValueError):
        pass
    module_name, _, attribute = dotted.rpartition(".")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    return hasattr(module, attribute)


def cli_vocabulary() -> tuple[set[str], set[str]]:
    """The CLI's real subcommands and the union of their option strings.

    Walks subparsers recursively, so nested subcommands (``study shard``,
    ``study merge``, ...) contribute both their names and their flags.
    """
    import argparse

    from repro.cli import build_parser

    commands: set[str] = set()
    flags: set[str] = set()

    def walk(parser: argparse.ArgumentParser) -> None:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    commands.add(name)
                    walk(sub)
            else:
                flags.update(
                    opt for opt in action.option_strings
                    if opt.startswith("--")
                )

    walk(build_parser())
    return commands, flags


def documented_cli_lines(text: str) -> list[str]:
    """Command lines invoking the CLI, with backslash continuations joined."""
    lines: list[str] = []
    pending: str | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if pending is not None:
            pending = pending.rstrip("\\") + " " + line
            if not line.endswith("\\"):
                lines.append(pending)
                pending = None
            continue
        if "python -m repro " in line or "repro-p2pstream " in line:
            if line.endswith("\\"):
                pending = line
            else:
                lines.append(line)
    if pending is not None:
        lines.append(pending)
    return lines


def check_cli_references(root: Path) -> list[Finding]:
    """Documented CLI commands and flags must exist on the real parser."""
    findings: list[Finding] = []
    commands, flags = cli_vocabulary()
    for doc in iter_doc_files(root):
        relative = doc.relative_to(root).as_posix()
        for line in documented_cli_lines(doc.read_text(encoding="utf-8")):
            if "python -m repro " in line:
                tail = line.split("python -m repro ", 1)[1]
            else:
                tail = line.split("repro-p2pstream ", 1)[1]
            words = tail.split()
            if words and not words[0].startswith("-"):
                command = words[0]
                if command not in commands:
                    findings.append(Finding(
                        file=relative, line=0, rule="doc-cli",
                        message=(
                            f"documented command {command!r} is not a CLI "
                            f"subcommand (known: {', '.join(sorted(commands))})"
                        ),
                    ))
            for flag in _FLAG.findall(line):
                if flag not in flags:
                    findings.append(Finding(
                        file=relative, line=0, rule="doc-cli",
                        message=f"documented flag {flag!r} exists on no "
                                "CLI subcommand",
                    ))
    return findings


def _module_relpath(module_name: str, module: object) -> str:
    """Best-effort repo-relative source path of an imported module."""
    file = getattr(module, "__file__", None)
    if file and file.endswith("__init__.py"):
        return "src/" + module_name.replace(".", "/") + "/__init__.py"
    return "src/" + module_name.replace(".", "/") + ".py"


def check_api_docstrings() -> list[Finding]:
    """Every export in ``repro.__all__`` and every module has a docstring."""
    findings: list[Finding] = []
    init_path = "src/repro/__init__.py"
    import repro

    for name in repro.__all__:
        obj = getattr(repro, name, None)
        if obj is None:
            findings.append(Finding(
                file=init_path, line=0, rule="doc-docstring",
                message=f"repro.__all__ exports missing symbol {name!r}",
            ))
            continue
        if not (inspect.isclass(obj) or callable(obj)):
            continue  # data exports (version string, name tuples)
        if not inspect.getdoc(obj):
            findings.append(Finding(
                file=init_path, line=0, rule="doc-docstring",
                message=f"repro.{name} has no docstring",
            ))
            continue
        if inspect.isclass(obj):
            for member_name, member in vars(obj).items():
                if member_name.startswith("_"):
                    continue
                target = member.fget if isinstance(member, property) else member
                if callable(target) and not inspect.getdoc(target):
                    findings.append(Finding(
                        file=init_path, line=0, rule="doc-docstring",
                        message=f"repro.{name}.{member_name} has no docstring",
                    ))
    for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
        if module_info.name.endswith("__main__"):
            continue  # importing it would run the CLI
        module = importlib.import_module(module_info.name)
        if not module.__doc__:
            findings.append(Finding(
                file=_module_relpath(module_info.name, module), line=1,
                rule="doc-docstring",
                message=f"module {module_info.name} has no docstring",
            ))
    return findings


def main(argv: list[str]) -> int:
    """Run every docs check from the repo root (optional first argument)."""
    default_root = Path(__file__).resolve().parents[3]
    root = Path(argv[1]).resolve() if len(argv) > 1 else default_root
    sys.path.insert(0, str(root / "src"))
    findings = (
        check_markdown(root)
        + check_cli_references(root)
        + check_api_docstrings()
    )
    documents = len(list(iter_doc_files(root)))
    return report(
        "check_docs", findings,
        ok_detail=f"{documents} documents, links + CLI references + "
                  "API docstrings",
    )
