"""One-call execution of a single run.

:func:`run_simulation` is the entry point the benchmarks, examples, the
CLI and :class:`~repro.orchestration.study.Study` share.  A
:class:`SimulationResult` packages the run's configuration, metrics and
bookkeeping.  Its metrics are a frozen
:class:`~repro.simulation.probes.RunMetrics`, built from the collector's
export payload when the run ends: the type a stored
:class:`~repro.orchestration.study.RunRecord` reads through too.  Grids
of runs (protocol comparisons, sweeps, replications) are
:class:`~repro.orchestration.study.Study` declarations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.capacity import max_capacity_sessions
from repro.simulation.config import SimulationConfig
from repro.simulation.probes import RunMetrics
from repro.simulation.trace import TraceRecorder

__all__ = ["SimulationResult", "run_simulation"]


@dataclass
class SimulationResult:
    """Everything one simulation run produced."""

    config: SimulationConfig
    metrics: RunMetrics
    events_processed: int
    wall_seconds: float
    message_stats: dict[str, float] | None

    @property
    def max_capacity(self) -> int:
        """Capacity ceiling if every peer became a supplier (Figure 4)."""
        class_counts = {c: 0 for c in self.config.ladder.classes}
        for peer_class, count in self.config.seed_suppliers.items():
            class_counts[peer_class] += count
        for peer_class, count in self.config.requesting_peers.items():
            class_counts[peer_class] += count
        return max_capacity_sessions(class_counts, self.config.ladder)

    @property
    def capacity_fraction_of_max(self) -> float:
        """Final capacity as a fraction of the ceiling (paper: >= 0.95)."""
        maximum = self.max_capacity
        return self.metrics.final_capacity() / maximum if maximum else 0.0

    def summary(self) -> str:
        """Compact run summary for logs and reports."""
        admitted = sum(self.metrics.admitted.values())
        first = sum(self.metrics.first_requests.values())
        return (
            f"{self.config.protocol} pattern {self.config.arrival_pattern}: "
            f"capacity {self.metrics.final_capacity():.0f}/{self.max_capacity} "
            f"({100 * self.capacity_fraction_of_max:.1f}% of max), "
            f"admitted {admitted}/{first}, "
            f"{self.events_processed} events in {self.wall_seconds:.2f}s"
        )


def run_simulation(
    config: SimulationConfig, trace: TraceRecorder | None = None
) -> SimulationResult:
    """Build and run one streaming system; returns its results.

    Every admission policy runs on the struct-of-arrays
    :class:`~repro.simulation.arrayengine.ArrayEngine`.  The engine is
    imported on first use, which keeps compiling its large module out of
    ``import repro``.
    """
    from repro.simulation.arrayengine import ArrayEngine

    # wall time is measured for reporting (events/sec) only; it never
    # steers the simulation, so the wall-clock ban does not apply here
    start = time.perf_counter()  # detlint: ignore[no-wallclock]
    engine = ArrayEngine(config, trace=trace)
    pipeline = engine.run()
    wall = time.perf_counter() - start  # detlint: ignore[no-wallclock]
    message_stats = (
        engine.transport.snapshot() if engine.transport is not None else None
    )
    return SimulationResult(
        config=config,
        metrics=RunMetrics(pipeline.to_dict()),
        events_processed=engine.events_processed,
        wall_seconds=wall,
        message_stats=message_stats,
    )

