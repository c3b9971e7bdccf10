"""Supplier-population management (the supply side of the system).

:class:`SupplierRegistry` owns everything that happens to a peer *after* it
becomes a supplying peer: entering the population (seed initialisation or
post-session promotion), the optional graceful churn cycle
(depart → rejoin → depart), and the ``T_out`` idle-elevation timers.

It is one of the three collaborators behind the
:class:`~repro.simulation.system.StreamingSystem` facade (the others being
:class:`~repro.simulation.requestpath.RequestPath` and
:class:`~repro.simulation.samplers.Samplers`).  The registry is the single
writer of the capacity ledger's supplier counts and of the lookup
substrate's registrations, so the supplier population can never drift from
what requesters can discover.
"""

from __future__ import annotations

from repro.core.capacity import CapacityLedger
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulator
from repro.simulation.entities import SimPeer
from repro.simulation.probes import MetricsPipeline
from repro.simulation.randoms import RandomStreams
from repro.simulation.trace import TraceRecorder

__all__ = ["SupplierRegistry"]


class SupplierRegistry:
    """Registers suppliers and runs their churn and idle-elevation timers."""

    #: how long a busy supplier's departure is deferred before re-checking
    DEPARTURE_RETRY_SECONDS = 300.0

    def __init__(
        self,
        *,
        sim: Simulator,
        config: SimulationConfig,
        policy,
        streams: RandomStreams,
        metrics: MetricsPipeline,
        ledger: CapacityLedger,
        lookup,
        trace: TraceRecorder | None = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.ladder = config.ladder
        self.media = config.media
        self.policy = policy
        self.streams = streams
        self.metrics = metrics
        self.ledger = ledger
        self.lookup = lookup
        self.trace = trace
        self.suppliers_by_class: dict[int, list[SimPeer]] = {
            c: [] for c in self.ladder.classes
        }
        #: session-lifecycle dynamics notified on every population entry;
        #: attached by the system only when a lifecycle model is active
        #: (see :mod:`repro.simulation.lifecycle`)
        self.lifecycle = None
        # arm_idle_timer runs after every session end and every effective
        # elevation — resolve its per-call constants once
        self._uses_idle_elevation = policy.uses_idle_elevation
        self._t_out_seconds = config.t_out_seconds
        self._num_classes = self.ladder.num_classes

    # ------------------------------------------------------------------
    # population entry
    # ------------------------------------------------------------------
    def register(self, peer: SimPeer) -> None:
        """Peer enters the supplier population (seed init or promotion)."""
        if peer.admission is None:
            peer.admission = self.policy.make_supplier_state(
                peer.peer_class, self.ladder
            )
        self.ledger.add_supplier(peer.peer_class)
        self.suppliers_by_class[peer.peer_class].append(peer)
        self.lookup.register_supplier(
            self.media.media_id, peer.peer_id, peer.peer_class
        )
        self.arm_idle_timer(peer)
        self._schedule_departure(peer)
        if self.lifecycle is not None:
            self.lifecycle.on_supplier_active(peer)
        if self.trace:
            self.trace.record(
                "supplier_joined",
                self.sim.now,
                peer=peer.peer_id,
                peer_class=peer.peer_class,
                capacity=self.ledger.sessions,
            )

    # ------------------------------------------------------------------
    # supplier churn (extension; off under the paper's configuration)
    # ------------------------------------------------------------------
    def _schedule_departure(self, peer: SimPeer) -> None:
        """Draw the supplier's next departure time, if churn is enabled."""
        mean_online = self.config.supplier_mean_online_seconds
        if mean_online is None:
            return
        delay = self.streams.churn.expovariate(1.0 / mean_online)
        self.sim.schedule_in(delay, self._on_departure, peer)

    def _on_departure(self, peer: SimPeer) -> None:
        """A supplier departs — gracefully: it first finishes any session."""
        if peer.departed:
            return
        state = peer.admission
        if state is not None and state.busy:
            self.sim.schedule_in(
                self.DEPARTURE_RETRY_SECONDS, self._on_departure, peer
            )
            return
        peer.departed = True
        peer.departures += 1
        peer.bump_idle_generation()  # kill any pending elevation timer
        self.ledger.remove_supplier(peer.peer_class)
        self.lookup.unregister_supplier(self.media.media_id, peer.peer_id)
        self.metrics.on_supplier_departure(peer.peer_class)
        if self.trace:
            self.trace.record(
                "supplier_departed",
                self.sim.now,
                peer=peer.peer_id,
                peer_class=peer.peer_class,
                capacity=self.ledger.sessions,
            )
        if self.config.suppliers_rejoin:
            delay = self.streams.churn.expovariate(
                1.0 / self.config.supplier_mean_offline_seconds
            )
            self.sim.schedule_in(delay, self._on_rejoin, peer)

    def _on_rejoin(self, peer: SimPeer) -> None:
        """A departed supplier comes back online with its old vector."""
        if not peer.departed:
            return
        peer.departed = False
        self.ledger.add_supplier(peer.peer_class)
        self.lookup.register_supplier(
            self.media.media_id, peer.peer_id, peer.peer_class
        )
        self.metrics.on_supplier_rejoin(peer.peer_class)
        self.arm_idle_timer(peer)
        self._schedule_departure(peer)
        if self.trace:
            self.trace.record(
                "supplier_rejoined",
                self.sim.now,
                peer=peer.peer_id,
                peer_class=peer.peer_class,
                capacity=self.ledger.sessions,
            )

    # ------------------------------------------------------------------
    # idle-elevation timers
    # ------------------------------------------------------------------
    def arm_idle_timer(self, peer: SimPeer) -> None:
        """Arm the ``T_out`` elevation timer for an idle supplier."""
        if not self._uses_idle_elevation:
            return
        state = peer.admission
        if state is None or state.busy or peer.departed:
            return
        # A supplier already favoring every class has nothing to elevate.
        if state.lowest_favored_class() == self._num_classes:
            return
        generation = peer.idle_timer_generation
        self.sim.schedule_in(
            self._t_out_seconds, self._on_idle_timeout, (peer, generation)
        )

    def _on_idle_timeout(self, payload: tuple[SimPeer, int]) -> None:
        peer, generation = payload
        if generation != peer.idle_timer_generation:
            return  # timer invalidated by a session start since it was armed
        state = peer.admission
        if state is None or state.busy or peer.departed:
            return
        changed = state.on_idle_timeout()
        if self.trace and changed:
            self.trace.record(
                "idle_elevation",
                self.sim.now,
                peer=peer.peer_id,
                lowest_favored=state.lowest_favored_class(),
            )
        if changed:
            self.arm_idle_timer(peer)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def favored_snapshot(self) -> dict[int, list[int]]:
        """Lowest favored class of every active supplier, by supplier class."""
        return {
            peer_class: [
                peer.admission.lowest_favored_class()
                for peer in suppliers
                if peer.admission is not None and not peer.departed
            ]
            for peer_class, suppliers in self.suppliers_by_class.items()
        }
