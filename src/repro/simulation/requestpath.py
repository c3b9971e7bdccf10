"""The requesting peer's path through the protocol (the demand side).

:class:`RequestPath` implements every interaction a requesting peer has
with the system, end to end:

* first-request arrival scheduling per the configured pattern;
* the probe loop over up to ``M`` lookup candidates, high class to low
  class, with the probabilistic grant test at idle suppliers;
* admission → OTS_p2p session planning → busy marking → session-end events;
* rejection → reminder placement at busy favoring candidates → exponential
  backoff and retry;
* post-session promotion of the requester into the supplier population
  (handed to the :class:`~repro.simulation.registry.SupplierRegistry`);
* under a session-lifecycle model whose departures interrupt sessions
  (:mod:`repro.simulation.lifecycle`), mid-stream interruption and
  recovery: sessions are tracked as
  :class:`~repro.streaming.session.ActiveSession` objects keyed by
  supplier, a supplier departure interrupts every session it serves, and
  the requester re-probes, honoring the paper's exponential backoff,
  until it can resume from its buffer position (or restarts/abandons,
  per ``lifecycle_recovery``).

One of the three collaborators behind the
:class:`~repro.simulation.system.StreamingSystem` facade.
"""

from __future__ import annotations

from operator import itemgetter

from repro.core.model import SupplierOffer
from repro.core.requesting import (
    CandidateReport,
    CandidateStatus,
    backoff_delay,
    choose_reminder_set,
)
from repro.errors import SimulationError
from repro.simulation.arrivals import generate_arrival_times, make_pattern
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulator
from repro.simulation.entities import SimPeer
from repro.simulation.lifecycle import LIFECYCLE_MODELS
from repro.simulation.probes import MetricsPipeline
from repro.simulation.randoms import RandomStreams
from repro.simulation.registry import SupplierRegistry
from repro.simulation.trace import TraceRecorder
from repro.streaming.session import ActiveSession, plan_session

__all__ = ["RequestPath"]

#: sort key of the candidate probe order (C-level, it runs per request)
_CANDIDATE_CLASS = itemgetter(1)


class RequestPath:
    """Probe loop, admission, rejection/backoff and session lifecycle."""

    def __init__(
        self,
        *,
        sim: Simulator,
        config: SimulationConfig,
        policy,
        streams: RandomStreams,
        metrics: MetricsPipeline,
        peers: list[SimPeer],
        lookup,
        transport,
        registry: SupplierRegistry,
        trace: TraceRecorder | None = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.ladder = config.ladder
        self.media = config.media
        self.policy = policy
        self.streams = streams
        self.metrics = metrics
        self.peers = peers
        self.lookup = lookup
        self.transport = transport
        self.registry = registry
        self.trace = trace

        # The probe loop runs once per request event and a few times per
        # candidate — the hottest Python in a run.  Everything constant is
        # resolved once here instead of per event: ladder arithmetic,
        # policy flags and the named RNG streams (their accessors are
        # dict-backed properties).  A zero down_probability never draws
        # the probe-loss coin from the churn stream, so there is no draw
        # function to call then.
        self._full_rate_units = self.ladder.full_rate_units
        self._offer_units = {
            c: self.ladder.offer_units(c) for c in self.ladder.classes
        }
        self._media_id = self.media.media_id
        self._probe_count = config.probe_candidates
        self._uses_reminders = policy.uses_reminders
        self._down_probability = config.down_probability
        self._churn_random = (
            streams.churn.random if config.down_probability > 0.0 else None
        )
        self._admission_rng = streams.admission
        self._lookup_rng = streams.lookup
        # A session plan's timing depends only on the multiset of supplier
        # classes (OTS_p2p is deterministic in it), and the backoff only on
        # the rejection count — memoizing both skips re-deriving identical
        # values thousands of times per run.
        self._delay_slots_by_classes: dict[tuple[int, ...], int] = {}
        self._backoff_by_rejections: dict[int, float] = {}
        # Session-lifecycle state.  Unless the lifecycle model interrupts
        # sessions, admissions take the handle-free fast path and none of
        # this is touched.
        self._tracks_sessions = LIFECYCLE_MODELS[config.lifecycle].interrupts_sessions
        self._recovery = config.lifecycle_recovery
        self._sessions_by_supplier: dict[int, list[ActiveSession]] = {}

    # ------------------------------------------------------------------
    # arrivals
    # ------------------------------------------------------------------
    def schedule_arrivals(self, requesters: list[SimPeer]) -> None:
        """Place every requester's first request per the arrival pattern."""
        pattern = make_pattern(
            self.config.arrival_pattern, self.config.arrival_window_seconds
        )
        times = generate_arrival_times(
            pattern,
            len(requesters),
            deterministic=self.config.deterministic_arrivals,
            rng=self.streams.arrivals,
        )
        for peer, time in zip(requesters, times):
            self.sim.schedule_at(time, self.on_request, peer)

    # ------------------------------------------------------------------
    # the request path
    # ------------------------------------------------------------------
    def on_request(self, peer: SimPeer) -> None:
        """A requesting peer makes a (first or retry) streaming request."""
        if peer.first_request_time is None:
            peer.first_request_time = self.sim.now
            self.metrics.on_first_request(peer.peer_class)
        else:
            self.metrics.on_retry(peer.peer_class)

        outcome = self._probe_candidates(peer)
        if outcome is None:
            self._reject(peer, enlisted_units=0, contacted_busy=[])
            return
        enlisted, contacted_busy, deficit = outcome
        if deficit == 0:
            self._admit(peer, enlisted)
        else:
            self._reject(
                peer,
                enlisted_units=self._full_rate_units - deficit,
                contacted_busy=contacted_busy,
            )

    def _probe_candidates(
        self, peer: SimPeer
    ) -> tuple[list[SimPeer], list[CandidateReport], int] | None:
        """Contact up to ``M`` candidates high-class-first; returns
        ``(enlisted suppliers, busy candidate reports, remaining deficit)``,
        or None when the lookup produced no candidates at all."""
        candidates = self.lookup.candidates(
            self._media_id, self._probe_count, peer.peer_id, self._lookup_rng
        )
        if not candidates:
            return None
        # Stable sort by class keeps the lookup's random order within a class.
        candidates.sort(key=_CANDIDATE_CLASS)

        admission_random = self._admission_rng.random
        peers = self.peers
        transport = self.transport
        offer_units = self._offer_units
        churn_random = self._churn_random
        down_probability = self._down_probability
        collect_busy = self._uses_reminders
        requester_class = peer.peer_class
        deficit = self._full_rate_units
        enlisted: list[SimPeer] = []
        contacted_busy: list[CandidateReport] = []

        for candidate_id, candidate_class in candidates:
            supplier = peers[candidate_id]
            if transport is not None:
                transport.round_trip("probe")
            if churn_random is not None and churn_random() < down_probability:
                continue
            state = supplier.admission
            if state is None:
                raise SimulationError(
                    f"candidate {candidate_id} has no admission state"
                )
            if state.busy:
                state.on_request_while_busy(requester_class)
                # The reports only feed reminder placement; policies
                # without reminders never read them.
                if collect_busy:
                    contacted_busy.append(
                        CandidateReport(
                            peer_id=candidate_id,
                            peer_class=candidate_class,
                            units=offer_units[candidate_class],
                            status=CandidateStatus.BUSY,
                            favors_requester=state.favors(requester_class),
                        )
                    )
                continue
            probability = state.grant_probability(requester_class)
            if probability >= 1.0 or admission_random() < probability:
                # Candidates arrive in descending-offer order, so a granted
                # offer always fits the remaining deficit exactly (the
                # power-of-two ladder; see core.requesting.greedy_fill).
                enlisted.append(supplier)
                deficit -= offer_units[candidate_class]
                if deficit == 0:
                    break
        return enlisted, contacted_busy, deficit

    def _admit(self, peer: SimPeer, enlisted: list[SimPeer]) -> None:
        """Start the streaming session for an admitted requesting peer."""
        delay_slots = self._buffering_delay_slots(enlisted)
        num_suppliers = len(enlisted)
        for supplier in enlisted:
            supplier.admission.on_session_start()
            supplier.bump_idle_generation()
            supplier.sessions_served += 1
            if self.transport is not None:
                self.transport.send("session_start")

        peer.admitted_time = self.sim.now
        peer.buffering_delay_slots = delay_slots
        peer.num_suppliers_served_by = num_suppliers
        self.metrics.on_admission(
            peer.peer_class,
            rejections_before=peer.rejections,
            num_suppliers=num_suppliers,
            buffering_delay_slots=delay_slots,
            waiting_seconds=peer.waiting_time or 0.0,
        )
        if self.trace:
            self.trace.record(
                "admission",
                self.sim.now,
                peer=peer.peer_id,
                peer_class=peer.peer_class,
                suppliers=[s.peer_id for s in enlisted],
                delay_slots=delay_slots,
            )
        # The transfer takes exactly the show time (aggregate supply rate
        # == R0; see StreamingSession.transfer_seconds).
        if self._tracks_sessions:
            session = ActiveSession(
                requester=peer,
                suppliers=list(enlisted),
                resumed_at=self.sim.now,
                remaining_seconds=self.media.show_seconds,
            )
            session.end_handle = self.sim.schedule_in(
                self.media.show_seconds, self._on_tracked_session_end, session
            )
            self._track(session)
        else:
            self.sim.schedule_in(
                self.media.show_seconds, self._on_session_end, (peer, enlisted)
            )

    def _buffering_delay_slots(self, enlisted: list[SimPeer]) -> int:
        """OTS_p2p buffering delay for this supplier set, memoized.

        The delay depends only on the multiset of supplier classes, so the
        full session plan (assignment + schedule) runs once per distinct
        class combination; every later admission with the same mix reuses
        the value.  ``plan_session`` itself stays the single source of
        truth — this is a cache, not a reimplementation.
        """
        key = tuple(sorted(supplier.peer_class for supplier in enlisted))
        delay = self._delay_slots_by_classes.get(key)
        if delay is None:
            offers = [
                SupplierOffer(
                    peer_id=index,
                    peer_class=peer_class,
                    units=self._offer_units[peer_class],
                )
                for index, peer_class in enumerate(key)
            ]
            session = plan_session(
                requester_id=-1,
                requester_class=1,
                offers=offers,
                media=self.media,
                ladder=self.ladder,
            )
            delay = session.buffering_delay_slots
            self._delay_slots_by_classes[key] = delay
        return delay

    def _reject(
        self,
        peer: SimPeer,
        enlisted_units: int,
        contacted_busy: list[CandidateReport],
    ) -> None:
        """Handle a rejection: reminders, backoff, retry scheduling."""
        peer.rejections += 1
        self.metrics.on_rejection(peer.peer_class)

        if self._uses_reminders and contacted_busy:
            shortfall = self._full_rate_units - enlisted_units
            for report in choose_reminder_set(contacted_busy, shortfall):
                supplier = self.peers[report.peer_id]
                supplier.admission.on_reminder(peer.peer_class)
                self.metrics.on_reminder(peer.peer_class)
                if self.transport is not None:
                    self.transport.send("reminder")

        delay = self._backoff_by_rejections.get(peer.rejections)
        if delay is None:
            delay = backoff_delay(
                peer.rejections, self.config.t_bkf_seconds, self.config.e_bkf
            )
            self._backoff_by_rejections[peer.rejections] = delay
        if self.trace:
            self.trace.record(
                "rejection",
                self.sim.now,
                peer=peer.peer_id,
                peer_class=peer.peer_class,
                rejections=peer.rejections,
                backoff_seconds=delay,
            )
        retry_at = self.sim.now + delay
        if retry_at <= self.config.horizon_seconds:
            self.sim.schedule_at(retry_at, self.on_request, peer)

    def _on_session_end(self, payload: tuple[SimPeer, list[SimPeer]]) -> None:
        """A streaming session finished: free suppliers, promote requester."""
        peer, enlisted = payload
        for supplier in enlisted:
            supplier.admission.on_session_end()
            supplier.bump_idle_generation()
            self.registry.arm_idle_timer(supplier)
            if self.transport is not None:
                self.transport.send("session_end")
        peer.promote(self.policy.make_supplier_state(peer.peer_class, self.ladder))
        self.registry.register(peer)

    # ------------------------------------------------------------------
    # session lifecycle: interruption and recovery (models that interrupt)
    # ------------------------------------------------------------------
    def _track(self, session: ActiveSession) -> None:
        """Index the session under each supplier currently serving it."""
        for supplier in session.suppliers:
            self._sessions_by_supplier.setdefault(supplier.peer_id, []).append(
                session
            )

    def _untrack(self, session: ActiveSession) -> None:
        """Drop the session from every supplier's index entry."""
        for supplier in session.suppliers:
            sessions = self._sessions_by_supplier.get(supplier.peer_id)
            if sessions is not None:
                try:
                    sessions.remove(session)
                except ValueError:
                    pass  # the departing supplier's entry was popped whole
                if not sessions:
                    del self._sessions_by_supplier[supplier.peer_id]

    def streaming_requesters(self) -> set[int]:
        """The requesters of the tracked sessions streaming now."""
        return {
            session.requester.peer_id
            for sessions in self._sessions_by_supplier.values()
            for session in sessions
        }

    def _on_tracked_session_end(self, session: ActiveSession) -> None:
        """A lifecycle-tracked session delivered its final byte."""
        self._untrack(session)
        peer = session.requester
        for supplier in session.suppliers:
            supplier.admission.on_session_end()
            supplier.bump_idle_generation()
            self.registry.arm_idle_timer(supplier)
            if self.transport is not None:
                self.transport.send("session_end")
        show = self.media.show_seconds
        self.metrics.on_session_complete(
            peer.peer_class,
            session.stall_seconds,
            session.interruptions,
            show / (show + session.stall_seconds),
        )
        peer.promote(self.policy.make_supplier_state(peer.peer_class, self.ladder))
        self.registry.register(peer)

    def on_supplier_departed(self, departed: SimPeer) -> None:
        """A supplier died mid-stream; interrupt every session it serves.

        Called by :class:`~repro.simulation.lifecycle.LifecycleDynamics`
        *after* the departure bookkeeping (ledger, lookup), so recovery
        probes can no longer discover the departed supplier.
        """
        sessions = self._sessions_by_supplier.pop(departed.peer_id, None)
        if not sessions:
            return
        for session in list(sessions):
            self._interrupt(session, departed)

    def _interrupt(self, session: ActiveSession, departed: SimPeer) -> None:
        """Stop a session mid-stream and start the configured recovery."""
        now = self.sim.now
        self.sim.cancel(session.end_handle)
        self._untrack(session)
        elapsed = now - session.resumed_at
        session.remaining_seconds = max(0.0, session.remaining_seconds - elapsed)
        peer = session.requester
        for supplier in session.suppliers:
            # Free every enlisted supplier — including the departed one,
            # whose busy flag must not survive into its next online period.
            supplier.admission.on_session_end()
            supplier.bump_idle_generation()
            if supplier is not departed:
                self.registry.arm_idle_timer(supplier)
                if self.transport is not None:
                    self.transport.send("session_interrupt")
        session.interruptions += 1
        session.interrupted_at = now
        session.recovery_attempts = 0
        self.metrics.on_interruption(peer.peer_class)
        if self.trace:
            self.trace.record(
                "session_interrupted",
                now,
                peer=peer.peer_id,
                peer_class=peer.peer_class,
                departed=departed.peer_id,
                remaining_seconds=session.remaining_seconds,
            )
        if self._recovery == "abandon":
            self.metrics.on_session_lost(peer.peer_class)
            return
        if self._recovery == "restart":
            session.remaining_seconds = self.media.show_seconds
        # The recovery probe runs as its own event at the current time, so
        # a mass departure interrupts every session first and the freed-up
        # survivors are probed afterwards, in FIFO order.
        self.sim.schedule_at(now, self._attempt_recovery, session)

    def _attempt_recovery(self, session: ActiveSession) -> None:
        """Re-probe for the interrupted requester; resume or back off.

        Recovery probes reuse the admission probe loop (``M`` candidates,
        high class first, grant tests) but leave no reminders — an
        interrupted peer is mid-session, not queueing for a first slot.
        Failures back off exponentially per the paper's
        ``T_bkf``/``E_bkf``, counted from the interruption.
        """
        peer = session.requester
        outcome = self._probe_candidates(peer)
        enlisted: list[SimPeer] = []
        deficit = self._full_rate_units
        if outcome is not None:
            enlisted, _contacted_busy, deficit = outcome
        if deficit == 0:
            self._resume(session, enlisted)
            return
        session.recovery_attempts += 1
        self.metrics.on_recovery_retry(peer.peer_class)
        delay = self._backoff_by_rejections.get(session.recovery_attempts)
        if delay is None:
            delay = backoff_delay(
                session.recovery_attempts,
                self.config.t_bkf_seconds,
                self.config.e_bkf,
            )
            self._backoff_by_rejections[session.recovery_attempts] = delay
        retry_at = self.sim.now + delay
        if retry_at <= self.config.horizon_seconds:
            self.sim.schedule_at(retry_at, self._attempt_recovery, session)
        else:
            self.metrics.on_session_lost(peer.peer_class)
            if self.trace:
                self.trace.record(
                    "session_lost",
                    self.sim.now,
                    peer=peer.peer_id,
                    peer_class=peer.peer_class,
                    recovery_attempts=session.recovery_attempts,
                )

    def _resume(self, session: ActiveSession, enlisted: list[SimPeer]) -> None:
        """Re-admit an interrupted session onto a fresh supplier set."""
        now = self.sim.now
        peer = session.requester
        delay_slots = self._buffering_delay_slots(enlisted)
        for supplier in enlisted:
            supplier.admission.on_session_start()
            supplier.bump_idle_generation()
            supplier.sessions_served += 1
            if self.transport is not None:
                self.transport.send("session_resume")
        latency = now - session.interrupted_at
        # The stall the viewer sees: waiting for re-admission plus the
        # resumed session's buffering delay before playback restarts.
        stall = latency + self.media.slots_to_seconds(delay_slots)
        session.stall_seconds += stall
        session.interrupted_at = None
        session.suppliers = list(enlisted)
        session.resumed_at = now
        session.end_handle = self.sim.schedule_in(
            session.remaining_seconds, self._on_tracked_session_end, session
        )
        self._track(session)
        self.metrics.on_recovery(peer.peer_class, latency, stall)
        if self.trace:
            self.trace.record(
                "session_resumed",
                now,
                peer=peer.peer_id,
                peer_class=peer.peer_class,
                suppliers=[s.peer_id for s in enlisted],
                recovery_latency_seconds=latency,
                remaining_seconds=session.remaining_seconds,
            )
