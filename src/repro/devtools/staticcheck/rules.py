"""The detlint rules: the determinism contracts, checked statically.

Each rule encodes one invariant the reproduction's claims rest on — the
contracts the golden/regression suites only *sample* dynamically:

* :class:`NoGlobalRng` — bit-identical runs require every draw to come
  from an injected ``random.Random`` stream (see
  :mod:`repro.simulation.randoms`); the shared module-level RNG (or an
  unseeded ``np.random`` call) is cross-run, cross-import-order state.
* :class:`NoWallclock` — simulated time is the only clock inside the
  simulation packages; a wall-clock read that steers behaviour breaks
  replay.  Benchmarks and the CLI may measure wall time freely.
* :class:`NoUnorderedIteration` — iterating a ``set`` or a directory
  listing feeds hash-order (or filesystem-order) into whatever consumes
  the loop; anywhere that order can reach event scheduling or hashing it
  must be ``sorted()`` first.
* :class:`SlotsHotpath` — the classes on the PR-4 hot-path registry are
  allocated/touched millions of times per run and must declare
  ``__slots__``.
* :class:`ExportSync` — ``repro.__all__`` and the imports that back it
  stay in lock-step, and ``repro._version.__version__`` is the string
  literal that ``pyproject.toml`` reads as the package version.

Every rule is a plain object satisfying the
:class:`~repro.devtools.staticcheck.framework.Checker` or
:class:`~repro.devtools.staticcheck.framework.ProjectChecker` protocol,
parameterized so the test suite can point it at fixture trees.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.devtools.reporting import Finding
from repro.devtools.staticcheck.framework import (
    Checker,
    ModuleSource,
    ProjectChecker,
    RuleScope,
)

__all__ = [
    "ExportSync",
    "HOT_PATH_REGISTRY",
    "NoGlobalRng",
    "NoUnorderedIteration",
    "NoWallclock",
    "SlotsHotpath",
    "all_checkers",
]

#: classes on the engine's hot path: touched per event at population
#: scale, so attribute storage must be slotted.
#: file (repo-relative) -> class names that must declare ``__slots__``.
HOT_PATH_REGISTRY: dict[str, tuple[str, ...]] = {
    "src/repro/simulation/arraystate.py": ("PeerArrays", "SessionTable"),
    "src/repro/simulation/arrayengine.py": ("ArrayEngine",),
}


def _attribute_chain(node: ast.expr) -> tuple[str, ...] | None:
    """``a.b.c`` as ``("a", "b", "c")``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _iter_calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


class NoGlobalRng:
    """All randomness must flow from injected ``random.Random`` streams."""

    rule = "no-global-rng"
    description = (
        "module-level random.* / unseeded np.random.* calls are banned; "
        "draw from an injected random.Random stream"
    )
    #: np.random attributes that *construct* seeded generators (allowed)
    NUMPY_ALLOWED = frozenset(
        {"default_rng", "Generator", "RandomState", "SeedSequence"}
    )
    #: names importable from ``random`` that do not touch the module RNG
    RANDOM_ALLOWED = frozenset({"Random"})

    def __init__(self, scope: RuleScope | None = None) -> None:
        self.scope = scope or RuleScope(include=("src/repro/",))

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        random_aliases: set[str] = set()
        numpy_aliases: set[str] = set()
        numpy_random_aliases: set[str] = set()
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        random_aliases.add(bound)
                    elif alias.name == "numpy":
                        numpy_aliases.add(bound)
                    elif alias.name == "numpy.random":
                        if alias.asname:
                            numpy_random_aliases.add(alias.asname)
                        else:
                            numpy_aliases.add("numpy")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        if alias.name not in self.RANDOM_ALLOWED:
                            findings.append(self._finding(
                                module, node.lineno,
                                f"'from random import {alias.name}' binds the "
                                "shared module-level RNG",
                            ))
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            numpy_random_aliases.add(alias.asname or "random")
        for call in _iter_calls(module.tree):
            chain = _attribute_chain(call.func)
            if chain is None or len(chain) < 2:
                continue
            head, attr = chain[0], chain[-1]
            if (
                len(chain) == 2
                and head in random_aliases
                and attr not in self.RANDOM_ALLOWED
            ):
                findings.append(self._finding(
                    module, call.lineno,
                    f"{head}.{attr}() draws from the shared module-level RNG",
                ))
            elif (
                len(chain) == 3
                and head in numpy_aliases
                and chain[1] == "random"
                and attr not in self.NUMPY_ALLOWED
            ):
                findings.append(self._finding(
                    module, call.lineno,
                    f"{'.'.join(chain)}() uses numpy's unseeded global RNG",
                ))
            elif (
                len(chain) == 2
                and head in numpy_random_aliases
                and attr not in self.NUMPY_ALLOWED
            ):
                findings.append(self._finding(
                    module, call.lineno,
                    f"{head}.{attr}() uses numpy's unseeded global RNG",
                ))
        return findings

    def _finding(self, module: ModuleSource, line: int, what: str) -> Finding:
        return Finding(
            file=module.relpath, line=line, rule=self.rule,
            message=f"{what}; inject a random.Random stream instead",
        )


class NoWallclock:
    """No wall-clock reads inside the deterministic simulation packages."""

    rule = "no-wallclock"
    description = (
        "time.time/perf_counter/datetime.now are banned in "
        "simulation/protocols/streaming/network (allowed in benchmarks/cli)"
    )
    TIME_FUNCS = frozenset({
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns", "localtime",
        "gmtime",
    })
    DATETIME_METHODS = frozenset({"now", "utcnow", "today"})

    def __init__(self, scope: RuleScope | None = None) -> None:
        self.scope = scope or RuleScope(include=(
            "src/repro/simulation/",
            "src/repro/protocols/",
            "src/repro/streaming/",
            "src/repro/network/",
        ))

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        time_aliases: set[str] = set()
        datetime_module_aliases: set[str] = set()
        datetime_class_aliases: set[str] = set()
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if alias.name == "time":
                        time_aliases.add(bound)
                    elif alias.name == "datetime":
                        datetime_module_aliases.add(bound)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in self.TIME_FUNCS:
                            findings.append(self._finding(
                                module, node.lineno,
                                f"'from time import {alias.name}'",
                            ))
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            datetime_class_aliases.add(alias.asname or alias.name)
        for call in _iter_calls(module.tree):
            chain = _attribute_chain(call.func)
            if chain is None or len(chain) < 2:
                continue
            head, attr = chain[0], chain[-1]
            if len(chain) == 2 and head in time_aliases and attr in self.TIME_FUNCS:
                findings.append(
                    self._finding(module, call.lineno, f"{head}.{attr}()")
                )
            elif attr in self.DATETIME_METHODS and (
                (len(chain) == 2 and head in datetime_class_aliases)
                or (
                    len(chain) == 3
                    and head in datetime_module_aliases
                    and chain[1] in ("datetime", "date")
                )
            ):
                findings.append(
                    self._finding(module, call.lineno, f"{'.'.join(chain)}()")
                )
        return findings

    def _finding(self, module: ModuleSource, line: int, what: str) -> Finding:
        return Finding(
            file=module.relpath, line=line, rule=self.rule,
            message=(
                f"{what} reads the wall clock inside a deterministic "
                "package; simulated time is the only clock here"
            ),
        )


class NoUnorderedIteration:
    """No iteration over sets or directory listings without ``sorted()``."""

    rule = "no-unordered-iteration"
    description = (
        "iterating set/frozenset values or os.listdir/Path.glob results "
        "leaks nondeterministic order; wrap in sorted()"
    )
    PATH_METHODS = frozenset({"glob", "rglob", "iterdir"})
    OS_FUNCS = frozenset({"listdir", "scandir"})
    #: wrappers whose iteration order is their argument's order
    TRANSPARENT = frozenset({"enumerate", "reversed", "tuple", "list", "iter"})
    #: consumers whose result cannot depend on iteration order, so a
    #: comprehension fed straight into them is exempt (``sum`` is NOT
    #: here: float addition is order-sensitive)
    ORDER_INSENSITIVE = frozenset(
        {"sorted", "min", "max", "any", "all", "set", "frozenset", "len"}
    )

    def __init__(self, scope: RuleScope | None = None) -> None:
        self.scope = scope or RuleScope(include=("src/repro/",))

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        exempt: set[ast.expr] = set()
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self.ORDER_INSENSITIVE
                and node.args
                and isinstance(
                    node.args[0],
                    (ast.ListComp, ast.SetComp, ast.GeneratorExp),
                )
            ):
                exempt.add(node.args[0])
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                if node not in exempt:
                    iters.extend(gen.iter for gen in node.generators)
            for expr in iters:
                what = self._unordered(expr)
                if what is not None:
                    findings.append(Finding(
                        file=module.relpath, line=expr.lineno, rule=self.rule,
                        message=(
                            f"iterating {what} has no deterministic order; "
                            "sort it (or suppress with a rationale where "
                            "order provably cannot matter)"
                        ),
                    ))
        return findings

    def _unordered(self, expr: ast.expr) -> str | None:
        """A description of why ``expr`` iterates unordered, or None."""
        if isinstance(expr, ast.Set):
            return "a set literal"
        if isinstance(expr, ast.SetComp):
            return "a set comprehension"
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                if func.id in ("set", "frozenset"):
                    return f"{func.id}(...)"
                if func.id in self.TRANSPARENT and expr.args:
                    return self._unordered(expr.args[0])
                if func.id == "zip":
                    for arg in expr.args:
                        inner = self._unordered(arg)
                        if inner is not None:
                            return inner
                return None
            chain = _attribute_chain(func)
            if chain is None:
                return None
            if chain[-1] in self.PATH_METHODS:
                return f".{chain[-1]}() results"
            if len(chain) == 2 and chain[0] == "os" and chain[1] in self.OS_FUNCS:
                return f"os.{chain[1]}() results"
        return None


class SlotsHotpath:
    """Hot-path classes must declare ``__slots__``."""

    rule = "slots-hotpath"
    description = (
        "classes on the hot-path registry must declare __slots__ "
        "(directly or via @dataclass(slots=True))"
    )

    def __init__(self, registry: dict[str, tuple[str, ...]] | None = None) -> None:
        self.registry = dict(registry) if registry is not None else HOT_PATH_REGISTRY
        self.anchors = tuple(self.registry)

    def check_project(self, root: Path) -> Iterable[Finding]:
        findings: list[Finding] = []
        for relpath, class_names in sorted(self.registry.items()):
            path = root / relpath
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"))
            except (OSError, SyntaxError, ValueError):
                findings.append(Finding(
                    file=relpath, line=0, rule=self.rule,
                    message="hot-path registry file cannot be parsed",
                ))
                continue
            defined = {
                node.name: node
                for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)
            }
            for name in class_names:
                node = defined.get(name)
                if node is None:
                    findings.append(Finding(
                        file=relpath, line=1, rule=self.rule,
                        message=(
                            f"hot-path registry names class {name} but the "
                            "file defines no such class (stale registry?)"
                        ),
                    ))
                elif not self._declares_slots(node):
                    findings.append(Finding(
                        file=relpath, line=node.lineno, rule=self.rule,
                        message=(
                            f"hot-path class {name} does not declare "
                            "__slots__ (per-event allocations must stay "
                            "compact; see the hot-path registry)"
                        ),
                    ))
        return findings

    @staticmethod
    def _declares_slots(node: ast.ClassDef) -> bool:
        for statement in node.body:
            targets: list[ast.expr] = []
            if isinstance(statement, ast.Assign):
                targets = statement.targets
            elif isinstance(statement, ast.AnnAssign):
                targets = [statement.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call):
                chain = _attribute_chain(decorator.func)
                if chain and chain[-1] == "dataclass":
                    for keyword in decorator.keywords:
                        if keyword.arg == "slots" and (
                            isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is True
                        ):
                            return True
        return False


class ExportSync:
    """``__all__`` matches its imports; ``_version`` holds a version literal."""

    rule = "export-sync"
    description = (
        "repro.__all__ must match the names bound in __init__ and export "
        "__version__ from repro._version, which must assign it a string "
        "literal"
    )

    def __init__(
        self,
        init_path: str = "src/repro/__init__.py",
        version_path: str = "src/repro/_version.py",
        version_module: str = "repro._version",
    ) -> None:
        self.init_path = init_path
        self.version_path = version_path
        self.version_module = version_module
        self.anchors = (init_path, version_path)

    def check_project(self, root: Path) -> Iterable[Finding]:
        findings: list[Finding] = []
        try:
            tree = ast.parse((root / self.init_path).read_text(encoding="utf-8"))
        except (OSError, SyntaxError, ValueError) as exc:
            findings.append(Finding(
                file=self.init_path, line=0, rule=self.rule,
                message=f"cannot parse package __init__: {exc}",
            ))
            return findings
        bound: dict[str, int] = {}
        version_source: str | None = None
        exported: list[tuple[str, int]] | None = None
        all_line = 1
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bound.setdefault(name, node.lineno)
                    if name == "__version__" and isinstance(node, ast.ImportFrom):
                        version_source = node.module
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                bound.setdefault(node.name, node.lineno)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if target.id == "__all__":
                            all_line = node.lineno
                            exported = self._literal_names(node, findings)
                        else:
                            bound.setdefault(target.id, node.lineno)
        if exported is None:
            findings.append(Finding(
                file=self.init_path, line=1, rule=self.rule,
                message="__all__ is missing or not a literal list of strings",
            ))
            return findings
        seen: set[str] = set()
        for name, line in exported:
            if name in seen:
                findings.append(Finding(
                    file=self.init_path, line=line, rule=self.rule,
                    message=f"__all__ lists {name!r} twice",
                ))
            seen.add(name)
            if name not in bound:
                findings.append(Finding(
                    file=self.init_path, line=line, rule=self.rule,
                    message=f"__all__ exports {name!r} but __init__ never "
                            "binds it",
                ))
        for name, line in sorted(bound.items()):
            if name.startswith("_"):
                continue
            if name not in seen:
                findings.append(Finding(
                    file=self.init_path, line=line, rule=self.rule,
                    message=(
                        f"{name!r} is bound in __init__ but missing from "
                        "__all__; export it or make it private"
                    ),
                ))
        if "__version__" not in seen:
            findings.append(Finding(
                file=self.init_path, line=all_line, rule=self.rule,
                message="__all__ must export __version__",
            ))
        elif version_source != self.version_module:
            findings.append(Finding(
                file=self.init_path, line=bound.get("__version__", 1),
                rule=self.rule,
                message=(
                    f"__version__ must be imported from {self.version_module} "
                    f"(found {version_source!r})"
                ),
            ))
        findings.extend(self._check_version_literal(root))
        return findings

    @staticmethod
    def _literal_names(
        node: ast.Assign, findings: list[Finding]
    ) -> list[tuple[str, int]]:
        names: list[tuple[str, int]] = []
        if isinstance(node.value, (ast.List, ast.Tuple)):
            for element in node.value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    names.append((element.value, element.lineno))
        return names

    def _check_version_literal(self, root: Path) -> list[Finding]:
        """A ``__version__`` string literal, which pyproject.toml reads."""
        try:
            tree = ast.parse(
                (root / self.version_path).read_text(encoding="utf-8")
            )
        except (OSError, SyntaxError, ValueError) as exc:
            return [Finding(
                file=self.version_path, line=0, rule=self.rule,
                message=f"cannot parse version module: {exc}",
            )]
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == "__version__"
                        and isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, str)
                    ):
                        return []
        return [Finding(
            file=self.version_path, line=1, rule=self.rule,
            message="__version__ string literal not found",
        )]


def all_checkers(
    rules: Sequence[str] | None = None,
) -> list[Checker | ProjectChecker]:
    """Every default rule instance, optionally filtered to ``rules``."""
    checkers: list[Checker | ProjectChecker] = [
        NoGlobalRng(),
        NoWallclock(),
        NoUnorderedIteration(),
        SlotsHotpath(),
        ExportSync(),
    ]
    if rules is None:
        return checkers
    by_name = {checker.rule: checker for checker in checkers}
    unknown = [name for name in rules if name not in by_name]
    if unknown:
        raise ValueError(
            f"unknown detlint rule(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(by_name))}"
        )
    return [by_name[name] for name in rules]
