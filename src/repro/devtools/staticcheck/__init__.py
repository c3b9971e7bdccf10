"""detlint — AST-based determinism analysis for this repo.

The golden suite samples the determinism contracts (a hundred pinned
configs); detlint enforces them statically over *every* line.  The
framework (:mod:`~repro.devtools.staticcheck.framework`) is a small
pluggable checker harness — per-module AST checkers, per-path rule
scoping and inline ``# detlint: ignore[rule]`` suppressions — and the
three rules (:mod:`~repro.devtools.staticcheck.rules`) encode the
contracts the simulation's reproducibility rests on:

``no-global-rng``
    all randomness flows from injected ``random.Random`` streams;
``no-wallclock``
    no wall-clock reads inside simulation/protocols/streaming/network;
``no-unordered-iteration``
    no iteration over sets or directory listings without ``sorted()``.

Run it as ``python -m repro lint``.
"""

from repro.devtools.reporting import Finding
from repro.devtools.staticcheck.framework import (
    Checker,
    ModuleSource,
    RuleScope,
    run_detlint,
)
from repro.devtools.staticcheck.rules import all_checkers

__all__ = [
    "Checker",
    "Finding",
    "ModuleSource",
    "RuleScope",
    "all_checkers",
    "run_detlint",
]
