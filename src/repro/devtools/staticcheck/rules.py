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

Every rule is a plain object satisfying the
:class:`~repro.devtools.staticcheck.framework.Checker` protocol, with a
:class:`~repro.devtools.staticcheck.framework.RuleScope` the test suite
can point at fixture paths.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Sequence

from repro.devtools.reporting import Finding
from repro.devtools.staticcheck.framework import (
    Checker,
    ModuleSource,
    RuleScope,
)

__all__ = [
    "NoGlobalRng",
    "NoUnorderedIteration",
    "NoWallclock",
    "all_checkers",
]


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


def all_checkers(rules: Sequence[str] | None = None) -> list[Checker]:
    """Every default rule instance, optionally filtered to ``rules``."""
    checkers: list[Checker] = [
        NoGlobalRng(),
        NoWallclock(),
        NoUnorderedIteration(),
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
