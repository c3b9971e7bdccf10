"""detlint — AST-based determinism & invariant analysis for this repo.

The golden suite samples the determinism contracts (a hundred pinned
configs); detlint enforces them statically over *every* line.  The
framework (:mod:`~repro.devtools.staticcheck.framework`) is a small
pluggable checker harness — per-module AST checkers and whole-project
cross-checkers, per-path rule scoping and inline
``# detlint: ignore[rule]`` suppressions — and the project rules
(:mod:`~repro.devtools.staticcheck.rules`) encode the contracts the
simulation's reproducibility rests on:

``no-global-rng``
    all randomness flows from injected ``random.Random`` streams;
``no-wallclock``
    no wall-clock reads inside simulation/protocols/streaming/network;
``no-unordered-iteration``
    no iteration over sets or directory listings without ``sorted()``;
``slots-hotpath``
    hot-path classes declare ``__slots__``;
``export-sync``
    ``repro.__all__`` and the imports backing it agree, and
    ``repro._version`` holds the version literal ``pyproject.toml`` reads.

Run it as ``python -m repro lint``.
"""

from repro.devtools.reporting import Finding
from repro.devtools.staticcheck.framework import (
    Checker,
    ModuleSource,
    ProjectChecker,
    RuleScope,
    run_detlint,
)
from repro.devtools.staticcheck.rules import all_checkers

__all__ = [
    "Checker",
    "Finding",
    "ModuleSource",
    "ProjectChecker",
    "RuleScope",
    "all_checkers",
    "run_detlint",
]
