"""detlint — AST-based determinism & invariant analysis for this repo.

The golden suite samples the determinism contracts (a hundred pinned
configs); detlint enforces them statically over *every* line.  The
framework (:mod:`~repro.devtools.staticcheck.framework`) is a small
pluggable checker harness — per-module AST checkers and whole-project
cross-checkers, per-path rule scoping, inline
``# detlint: ignore[rule]`` suppressions, and an optional baseline file
— and the project rules (:mod:`~repro.devtools.staticcheck.rules`)
encode the contracts the simulation's reproducibility rests on:

``no-global-rng``
    all randomness flows from injected ``random.Random`` streams;
``no-wallclock``
    no wall-clock reads inside simulation/protocols/streaming/network;
``no-unordered-iteration``
    no iteration over sets or directory listings without ``sorted()``;
``config-hash-drift``
    every ``SimulationConfig`` field is hashed or excluded-with-rationale
    in ``HASH_EXCLUDED_FIELDS``;
``slots-hotpath``
    hot-path classes declare ``__slots__``;
``export-sync``
    ``repro.__all__``, the imports backing it, ``repro._version`` and
    ``pyproject.toml`` agree.

Run it as ``python -m repro lint`` or
``python -m repro.devtools.staticcheck``.
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
