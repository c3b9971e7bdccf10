"""One-call execution of a single run.

:func:`run_simulation` is the entry point the benchmarks, examples, the
CLI and :class:`~repro.orchestration.study.Study` share.  A
:class:`SimulationResult` packages the run's configuration, metrics and
bookkeeping.  Grids of runs (protocol comparisons, sweeps, replications)
are :class:`~repro.orchestration.study.Study` declarations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.capacity import max_capacity_sessions
from repro.simulation.config import SimulationConfig
from repro.simulation.probes import MetricsPipeline
from repro.simulation.system import StreamingSystem
from repro.simulation.trace import TraceRecorder

__all__ = ["SimulationResult", "run_simulation"]


@dataclass
class SimulationResult:
    """Everything one simulation run produced."""

    config: SimulationConfig
    metrics: MetricsPipeline
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

    ``config.engine`` selects the execution engine: the per-peer object
    walk of :class:`~repro.simulation.system.StreamingSystem` or the
    struct-of-arrays :class:`~repro.simulation.arrayengine.ArrayEngine`.
    Both produce identical results by contract (the array engine is
    parity-pinned against the object engine), so everything downstream
    of this call is engine-agnostic.  The import is deferred so runs on
    the default engine never pay for numpy.
    """
    # wall time is measured for reporting (events/sec) only; it never
    # steers the simulation, so the wall-clock ban does not apply here
    start = time.perf_counter()  # detlint: ignore[no-wallclock]
    if config.engine == "array":
        from repro.simulation.arrayengine import ArrayEngine

        system = ArrayEngine(config, trace=trace)
        metrics = system.run()
        events_processed = system.events_processed
    else:
        system = StreamingSystem(config, trace=trace)
        metrics = system.run()
        events_processed = system.sim.events_processed
    wall = time.perf_counter() - start  # detlint: ignore[no-wallclock]
    message_stats = (
        system.transport.stats.snapshot() if system.transport is not None else None
    )
    return SimulationResult(
        config=config,
        metrics=metrics,
        events_processed=events_processed,
        wall_seconds=wall,
        message_stats=message_stats,
    )

