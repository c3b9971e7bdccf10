"""Periodic metric samplers.

:class:`Samplers` drives the three measurement clocks of a run — the
hourly capacity and rate samples and the 3-hourly favored-class snapshot —
feeding the :class:`~repro.simulation.probes.MetricsPipeline` collector
that backs Figures 4–9; the collector's subscribed probe names decide
which clocks run.  Sampling is pure observation: nothing here mutates
protocol state, so the subsystem can be rewired or silenced without
changing a run's dynamics (only its recorded series).

One of the three collaborators behind the
:class:`~repro.simulation.system.StreamingSystem` facade.
"""

from __future__ import annotations

from repro.core.capacity import CapacityLedger
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulator
from repro.simulation.probes import MetricsPipeline
from repro.simulation.registry import SupplierRegistry

__all__ = ["Samplers"]


class Samplers:
    """Self-rescheduling capacity/rate/favored samplers."""

    def __init__(
        self,
        *,
        sim: Simulator,
        config: SimulationConfig,
        metrics: MetricsPipeline,
        ledger: CapacityLedger,
        registry: SupplierRegistry,
    ) -> None:
        self.sim = sim
        self.config = config
        self.metrics = metrics
        self.ledger = ledger
        self.registry = registry

    def start(self) -> None:
        """Take the t=0 samples; each sampler then reschedules itself.

        Only the clocks a subscribed probe reads are started at all —
        an unsubscribed artifact costs neither its samples nor its events
        (the Figure-7 snapshot in particular walks the whole supplier
        population every 3 simulated hours).
        """
        if self.metrics.wants_capacity_samples:
            self._sample_capacity(None)
        if self.metrics.wants_rate_samples:
            self._sample_rates(None)
        if self.metrics.wants_favored_samples:
            self._sample_favored(None)

    def _sample_capacity(self, _arg: object) -> None:
        self.metrics.sample_capacity(self.sim.now, self.ledger)
        next_time = self.sim.now + self.config.capacity_sample_seconds
        if next_time <= self.config.horizon_seconds:
            self.sim.schedule_at(next_time, self._sample_capacity, None)

    def _sample_rates(self, _arg: object) -> None:
        self.metrics.sample_rates(self.sim.now)
        next_time = self.sim.now + self.config.rate_sample_seconds
        if next_time <= self.config.horizon_seconds:
            self.sim.schedule_at(next_time, self._sample_rates, None)

    def _sample_favored(self, _arg: object) -> None:
        self.metrics.sample_favored(self.sim.now, self.registry.favored_snapshot())
        next_time = self.sim.now + self.config.favored_snapshot_seconds
        if next_time <= self.config.horizon_seconds:
            self.sim.schedule_at(next_time, self._sample_favored, None)
