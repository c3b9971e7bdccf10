"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Simulation
results are cached per configuration so that, e.g., the DAC/pattern-2 run
feeding Figures 4, 5, 6 and Table 1 executes once.

Scale
-----
``REPRO_SCALE`` (default ``0.1``) scales the peer population; ``1.0`` is the
paper's full 50,100 peers.  All reported *shapes* are scale-invariant
because the protocol dynamics depend on supply/demand ratios.

Output
------
Each benchmark writes its rendered report to ``benchmarks/output/<name>.txt``
and prints it (visible with ``pytest -s``); ``docs/EXPERIMENTS.md`` maps
every paper artifact to its benchmark and CLI recipe.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.orchestration.runspec import config_hash
from repro.orchestration.store import ResultStore
from repro.scenarios import get_scenario
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import SimulationResult, run_simulation

OUTPUT_DIR = Path(__file__).parent / "output"

_RESULT_CACHE: dict[tuple, SimulationResult] = {}


def study_store() -> ResultStore | None:
    """Disk-backed record store shared across benchmark invocations.

    Studies run through it skip any spec already computed by a previous
    ``pytest benchmarks`` invocation at the same ``REPRO_SCALE`` (the
    spec hash covers the whole config, so scale changes never collide).
    Lives under ``benchmarks/output/``, which is gitignored.

    Caution: the spec hash covers the *config*, not the simulator code —
    after changing simulation logic without bumping ``__version__``,
    delete ``benchmarks/output/cache`` or run with ``REPRO_BENCH_CACHE=0``
    (returns ``None``, disabling the store) so assertions exercise the
    new code instead of stale records.
    """
    if os.environ.get("REPRO_BENCH_CACHE", "1") == "0":
        return None
    return ResultStore(OUTPUT_DIR / "cache")


def repro_scale() -> float:
    """Population scale for benchmark runs (env ``REPRO_SCALE``)."""
    return float(os.environ.get("REPRO_SCALE", "0.1"))


def paper_config(**overrides: object) -> SimulationConfig:
    """The paper's workload (scenario registry) at benchmark scale."""
    return get_scenario("paper_default").build_config(
        scale=repro_scale(), **overrides
    )


def cached_run(config: SimulationConfig) -> SimulationResult:
    """Run (or reuse) the simulation for ``config``.

    Keyed by the run-spec content hash, which covers every config field
    — a hand-maintained field tuple here silently collided when new
    knobs were added.
    """
    key = config_hash(config)
    if key not in _RESULT_CACHE:
        _RESULT_CACHE[key] = run_simulation(config)
    return _RESULT_CACHE[key]


def emit_report(name: str, text: str) -> None:
    """Print a benchmark's report and persist it under benchmarks/output/."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print(f"\n{'=' * 78}\n{text}\n{'=' * 78}")


@pytest.fixture(scope="session")
def scale() -> float:
    """Session fixture exposing the configured population scale."""
    return repro_scale()
