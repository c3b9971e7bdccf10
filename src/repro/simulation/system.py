"""The simulated peer-to-peer streaming system (Sections 2, 4 and 5).

:class:`StreamingSystem` is a thin facade that builds every substrate and
wires the three protocol subsystems together:

* :class:`~repro.simulation.registry.SupplierRegistry` — the supply side:
  supplier registration, graceful churn (depart → rejoin), and the
  ``T_out`` idle-elevation timers;
* :class:`~repro.simulation.requestpath.RequestPath` — the demand side:
  arrival scheduling, the ``M``-candidate probe loop, admission → OTS_p2p
  session planning, rejection → reminders → exponential backoff, and
  post-session promotion;
* :class:`~repro.simulation.samplers.Samplers` — the periodic metric
  samplers behind Figures 4–9.

A fourth, optional subsystem —
:class:`~repro.simulation.lifecycle.LifecycleDynamics` — schedules
mid-stream supplier departures and returns when the configuration selects
a lifecycle model (``config.lifecycle != "none"``); with the default
``none`` model it is never constructed and runs are bit-identical to a
build without it.

The system is deterministic for a fixed config: RNG streams are named and
seeded, candidate ordering is stable, and the event queue breaks ties FIFO.
The wiring order below (population → lookup → seed registration →
arrivals → samplers) is part of that contract — it fixes the sequence
numbers of the initial events.
"""

from __future__ import annotations

from repro.core.capacity import CapacityLedger
from repro.network.lookup import ChordLookup, DirectoryLookup
from repro.network.transport import Transport
from repro.protocols.base import make_policy
from repro.simulation.churn import BernoulliChurn, NoChurn
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulator
from repro.simulation.entities import SimPeer, build_population
from repro.simulation.lifecycle import LifecycleDynamics, make_lifecycle
from repro.simulation.probes import MetricsPipeline
from repro.simulation.probes import DEFAULT_PROBES
from repro.simulation.randoms import RandomStreams
from repro.simulation.registry import SupplierRegistry
from repro.simulation.requestpath import RequestPath
from repro.simulation.samplers import Samplers
from repro.simulation.trace import TraceRecorder

__all__ = ["StreamingSystem"]


class StreamingSystem:
    """One simulated run of the paper's peer-to-peer streaming system."""

    def __init__(
        self, config: SimulationConfig, trace: TraceRecorder | None = None
    ) -> None:
        self.config = config
        self.ladder = config.ladder
        self.media = config.media
        self.policy = make_policy(config.protocol)
        self.sim = Simulator()
        self.streams = RandomStreams(config.master_seed)
        # Lifecycle runs with the default subscription also get the
        # continuity probe — its artifacts are what the extension measures.
        probes = config.probes
        if config.lifecycle != "none" and probes is None:
            probes = DEFAULT_PROBES + ("continuity",)
        self.metrics = MetricsPipeline(self.ladder, probes=probes)
        self.ledger = CapacityLedger(self.ladder)
        self.trace = trace

        self.transport = Transport() if config.track_messages else None
        if config.down_probability > 0.0:
            self.churn = BernoulliChurn(config.down_probability)
        else:
            self.churn = NoChurn()

        self.peers, self._requesters = build_population(
            config, self.streams.population
        )
        if config.lookup == "chord":
            seed_ids = [peer.peer_id for peer in self.peers if peer.is_seed]
            self.lookup = ChordLookup(seed_ids, transport=self.transport)
        else:
            self.lookup = DirectoryLookup(transport=self.transport)

        self.registry = SupplierRegistry(
            sim=self.sim,
            config=config,
            policy=self.policy,
            streams=self.streams,
            metrics=self.metrics,
            ledger=self.ledger,
            lookup=self.lookup,
            trace=trace,
        )
        self.request_path = RequestPath(
            sim=self.sim,
            config=config,
            policy=self.policy,
            streams=self.streams,
            metrics=self.metrics,
            peers=self.peers,
            lookup=self.lookup,
            transport=self.transport,
            churn=self.churn,
            registry=self.registry,
            trace=trace,
        )
        self.samplers = Samplers(
            sim=self.sim,
            config=config,
            metrics=self.metrics,
            ledger=self.ledger,
            registry=self.registry,
        )
        # The lifecycle dynamics attach to the registry *before* the seed
        # suppliers register below, so seeds get departure events too.
        self.lifecycle: LifecycleDynamics | None = None
        if config.lifecycle != "none":
            self.lifecycle = LifecycleDynamics(
                sim=self.sim,
                config=config,
                model=make_lifecycle(config),
                metrics=self.metrics,
                ledger=self.ledger,
                lookup=self.lookup,
                registry=self.registry,
                request_path=self.request_path,
                trace=trace,
            )
            self.registry.lifecycle = self.lifecycle

        for peer in self.peers:
            if peer.is_seed:
                self.registry.register(peer)
        self.request_path.schedule_arrivals(self._requesters)
        self.samplers.start()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> MetricsPipeline:
        """Run the simulation to the configured horizon; returns metrics."""
        self.sim.run(until=self.config.horizon_seconds)
        return self.metrics

    # ------------------------------------------------------------------
    # inspection helpers (used by tests and examples)
    # ------------------------------------------------------------------
    @property
    def suppliers_by_class(self) -> dict[int, list[SimPeer]]:
        """Suppliers grouped by class (owned by the registry)."""
        return self.registry.suppliers_by_class

    @property
    def num_suppliers(self) -> int:
        """Current size of the supplier population."""
        return self.ledger.num_suppliers

    def peers_of_class(self, peer_class: int) -> list[SimPeer]:
        """All peers of a given class (any role)."""
        return [peer for peer in self.peers if peer.peer_class == peer_class]
