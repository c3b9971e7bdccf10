"""Array-backed execution engine: the one every run takes.

:func:`~repro.simulation.runner.run_simulation` runs every config here,
over the struct-of-arrays columns of :mod:`repro.simulation.arraystate`
instead of per-peer Python objects.  Peer state lives in flat columns,
admission vectors in two small integers per supplier, and events in
``(time, seq, kind, payload)`` tuples on one C-backed heap — no handles,
no closures, no per-peer objects — because at 100k+ peers attribute-dict
hops and per-event closures would cap throughput far below what the
paper's million-user experiments need.

Determinism contract
--------------------
A run is a pure function of its config: same metrics payload, same event
count, same message statistics, same trace records.

* every RNG draw happens on a named stream in a fixed order (candidate
  sampling calls the *same* ``random.sample`` / ``random.shuffle`` the
  central directory would, on the directory's own live entry list);
* every scheduled event takes the next sequence number, even one past
  the horizon that is never stored, so simultaneous events dispatch in
  FIFO order;
* requester arrivals — the single biggest event block — never touch the
  heap at all: they are a pre-sorted lane merged into dispatch by
  ``(time, seq)``.  A deterministic lane is the read-only vector
  :func:`~repro.simulation.arrivals.deterministic_lane` shares between
  the runs of a process with the same pattern, window and requester
  count; placing it loads numpy for patterns 1, 3 and 4 from
  :data:`~repro.simulation.arrivals.LOCKSTEP_MIN_ARRIVALS` requesters
  on, and nothing else in this engine does.  Poisson arrivals are drawn
  per run from the ``arrivals`` stream.

``tests/simulation/test_golden.py`` pins this contract: the fingerprint
of every builtin scenario under every admission policy, with every
pinned run traced and audited by
:func:`~repro.simulation.validation.audit_system` (S1–S6, T1–T4).

Admission vectors as tables
---------------------------
The readable state machines of :mod:`repro.core.admission` and
:mod:`repro.protocols` are the reference; a supplier's vector is held as
its lowest favored class ``F`` (the ``level`` column, negated while
busy) and its linear step count ``k`` (the ``step`` column).  Requests
at or above ``F`` are granted outright; below it the grant probability
is ``grant[k][rc - F]``.  An elevation — ``T_out`` of idleness, or a
session end with no favored-class request — is one table step,
``F = min(N, F + gain[k])`` and ``k = next_step[k]``; a tighten resets
``k`` to 0.  The doubling policies use one row (``0.5 ** d``),
``gain = [1]`` and ``next_step = [0]``, so ``k`` stays 0 and nothing
branches on the policy.  ``dac-linear-elevation`` adds 1/8 to every
sub-one entry per step instead: its rows are built with the state
machine's own ``min(1.0, v + ELEVATION_STEP)``, so every grant
probability equals the float the state machine stores, and at most 8
steps favor every class.  ``tests/simulation/test_admission_columns.py``
drives every registered policy's state machine and these tables through
the same random event sequences, and replays the probe loop and the
reminder placement through :mod:`repro.core.requesting`.

Everything that is *not* per-peer or per-event hot state is shared with
the rest of the package unchanged: the :class:`MetricsPipeline`
collector, :class:`CapacityLedger`, the lookup substrates, the lifecycle
models, ``plan_session`` and the backoff/reminder math.  The engine
calls neither :class:`MetricsPipeline` nor :class:`Transport` per event:
it bumps the collector's per-class counters and sums inline, and the
transport's per-kind ``counts`` list too, one bump per send site (a
whole session's suppliers, or a whole probe loop's candidates, at once).
"""

from __future__ import annotations

import gc
from collections.abc import Sequence
from heapq import heappop, heappush
from math import ceil, log

from repro.core.capacity import CapacityLedger
from repro.core.model import ClassLadder, SupplierOffer
from repro.core.requesting import backoff_delay
from repro.errors import SimulationError
from repro.network.lookup import ChordLookup, DirectoryLookup
from repro.network.transport import (
    LOOKUP,
    LOOKUP_REPLY,
    PROBE,
    PROBE_REPLY,
    REMINDER,
    SESSION_END,
    SESSION_INTERRUPT,
    SESSION_RESUME,
    SESSION_START,
    Transport,
)
from repro.protocols.base import AdmissionPolicy, make_policy
from repro.simulation.arrivals import (
    deterministic_lane,
    generate_arrival_times,
    make_pattern,
)
from repro.simulation.arraystate import PeerArrays, SessionTable
from repro.simulation.config import SimulationConfig
from repro.simulation.lifecycle import (
    DEPARTURE_RETRY_SECONDS,
    LIFECYCLE_MODELS,
    make_lifecycle,
)
from repro.simulation.probes import (
    CAPACITY_SAMPLE_SECONDS,
    DEFAULT_PROBES,
    FAVORED_SAMPLE_SECONDS,
    RATE_SAMPLE_SECONDS,
    MetricsPipeline,
)
from repro.simulation.randoms import RandomStreams
from repro.simulation.trace import TraceRecorder
from repro.streaming.session import plan_session

__all__ = ["ArrayEngine"]

# Event kinds, ordered roughly by dispatch frequency.  Payloads are plain
# ints or small tuples — never objects with identity the loop relies on.
_REQUEST = 0          # retry request; payload: peer id
_SESSION_END = 1      # untracked session end; payload: (requester, [suppliers])
_IDLE_TIMEOUT = 2     # T_out elevation; payload: (peer id, idle generation)
_TRACKED_END = 3      # interruptible session end; payload: (slot, slot generation)
_RECOVERY = 4         # recovery probe; payload: slot
_LC_DEPARTURE = 5     # lifecycle departure (or its busy re-check); payload: peer id
_LC_RETURN = 6        # lifecycle return; payload: peer id
_SAMPLE_CAPACITY = 7
_SAMPLE_RATES = 8
_SAMPLE_FAVORED = 9


def _elevation_tables(
    policy: AdmissionPolicy, ladder: ClassLadder
) -> tuple[list[list[float]], list[int], list[int]]:
    """``(grant, gain, next_step)`` for the policy's elevation rule.

    ``grant[k][d]`` is ``Pa[F + d]`` of a supplier whose lowest favored
    class is ``F`` after ``k`` linear steps; an elevation moves ``F`` by
    ``gain[k]`` (capped at ``N``) and ``k`` to ``next_step[k]``.
    """
    n = ladder.num_classes
    pow_half = [0.5**d for d in range(n + 1)]
    step = getattr(policy.state, "ELEVATION_STEP", None)
    if step is None:
        # doubling keeps Pa[F + d] = 0.5 ** d and moves F by one class
        return [pow_half], [1], [0]
    # rows[k][d]: Pa at d classes below the tighten level after k steps,
    # from the state machine's own float op, until the farthest class
    # (d = n - 1) is favored too
    rows = [pow_half]
    while rows[-1][n - 1] < 1.0:
        rows.append([min(1.0, value + step) for value in rows[-1]])
    # lifted[k]: classes below the tighten level that k steps favor
    lifted = [sum(1 for value in row[1:n] if value == 1.0) for row in rows]
    grant = [row[gained:] for row, gained in zip(rows, lifted)]
    last = len(rows) - 1  # favors every class: never elevated again
    gain = [lifted[k + 1] - lifted[k] for k in range(last)] + [0]
    next_step = list(range(1, last + 1)) + [last]
    return grant, gain, next_step


class ArrayEngine:
    """One simulation run over struct-of-arrays state.

    Construction order fixes RNG draws and initial sequence numbers, so
    it is part of the determinism contract.  :meth:`run` executes the
    event loop and returns the shared :class:`MetricsPipeline`.

    ``__slots__`` because every event handler reads several engine
    attributes: slot access skips the instance-dict probe, which is
    measurable over millions of events.
    """

    __slots__ = (
        "config",
        "trace",
        "ladder",
        "media",
        "policy",
        "now",
        "events_processed",
        "streams",
        "metrics",
        "ledger",
        "transport",
        "_messages",
        "lookup",
        "peers",
        "sessions",
        "_seq",
        "_heap",
        "_horizon",
        "_num_classes",
        "_full_rate_units",
        "_offer_units",
        "_init_level",
        "_grant",
        "_gain",
        "_next_step",
        "_media_id",
        "_show_seconds",
        "_probe_count",
        "_uses_reminders",
        "_uses_idle_elevation",
        "_t_out",
        "_t_bkf",
        "_e_bkf",
        "_churn_active",
        "_p_down",
        "_admission_random",
        "_churn_rng",
        "_lookup_rng",
        "_lookup_getrandbits",
        "_sample_setsize",
        "_sample_selected",
        "_delay_slots_by_classes",
        "_backoff_by_rejections",
        "_num_seeds",
        "_favored_sum",
        "_dir_entries",
        "_lifecycle_enabled",
        "_tracks_sessions",
        "_lifecycle_model",
        "_lifecycle_rejoin",
        "_recovery",
        "_sessions_by_supplier",
        "_arrival_times",
        "_arrival_base_seq",
        "_arrival_index",
        "_handlers",
    )

    def __init__(
        self, config: SimulationConfig, trace: TraceRecorder | None = None
    ) -> None:
        self.config = config
        self.trace = trace
        ladder = config.ladder
        media = config.media
        self.ladder = ladder
        self.media = media
        policy = make_policy(config.protocol)
        self.policy = policy

        # --- clock, sequence numbers, event heap -----------------------
        self.now = 0.0
        self.events_processed = 0
        self._seq = 0
        self._heap: list[tuple[float, int, int, object]] = []
        self._horizon = config.horizon_seconds

        # --- shared measurement/substrate objects ----------------------
        self.streams = RandomStreams(config.master_seed)
        probes = config.probes
        self._tracks_sessions = LIFECYCLE_MODELS[config.lifecycle].interrupts_sessions
        if self._tracks_sessions and probes is None:
            probes = DEFAULT_PROBES + ("continuity",)
        self.metrics = MetricsPipeline(ladder, probes=probes)
        self.ledger = CapacityLedger(ladder)
        self.transport = Transport() if config.track_messages else None
        # the transport's per-kind counts, bumped inline (None: untracked)
        self._messages = (
            self.transport.counts if self.transport is not None else None
        )

        # --- resolved per-event constants ------------------------------
        self._num_classes = ladder.num_classes
        self._full_rate_units = ladder.full_rate_units
        # offer units by class, index = class id (index 0 unused)
        self._offer_units = [0] * (self._num_classes + 1)
        for c in ladder.classes:
            self._offer_units[c] = ladder.offer_units(c)
        # initial lowest favored class by supplier class, read off the
        # policy's own state machine
        self._init_level = [0] * (self._num_classes + 1)
        for c in ladder.classes:
            self._init_level[c] = policy.make_supplier_state(
                c, ladder
            ).lowest_favored_class()
        self._grant, self._gain, self._next_step = _elevation_tables(
            policy, ladder
        )
        self._media_id = media.media_id
        self._show_seconds = media.show_seconds
        self._probe_count = config.probe_candidates
        self._uses_reminders = policy.uses_reminders
        self._uses_idle_elevation = policy.uses_idle_elevation
        self._t_out = config.t_out_seconds
        self._t_bkf = config.t_bkf_seconds
        self._e_bkf = config.e_bkf
        self._churn_active = config.down_probability > 0.0
        self._p_down = config.down_probability
        self._admission_random = self.streams.admission.random
        self._churn_rng = self.streams.churn
        self._lookup_rng = self.streams.lookup
        # inline clone of random.sample's draw loop (same algorithm, same
        # getrandbits draws, minus the stdlib's per-call validation and
        # function dispatch): the set-vs-pool threshold depends only on k,
        # so hoist it here
        self._lookup_getrandbits = self._lookup_rng.getrandbits
        k = self._probe_count
        self._sample_setsize = 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0)
        self._sample_selected: set[int] = set()
        self._delay_slots_by_classes: dict[tuple[int, ...], int] = {}
        self._backoff_by_rejections: dict[int, float] = {}

        # --- population columns: seeds by class, then the shuffled
        # requester class labels ----------------------------------------
        classes: list[int] = []
        for peer_class in sorted(config.seed_suppliers):
            classes.extend([peer_class] * config.seed_suppliers[peer_class])
        num_seeds = len(classes)
        labels: list[int] = []
        for peer_class in sorted(config.requesting_peers):
            labels.extend([peer_class] * config.requesting_peers[peer_class])
        self.streams.population.shuffle(labels)
        classes.extend(labels)
        self._num_seeds = num_seeds
        self.peers = PeerArrays(classes)
        # Σ|level| over the live (registered, not departed) suppliers of
        # each class, index = class id: Figure 7 divides it by the
        # ledger's per-class count
        self._favored_sum = [0] * (self._num_classes + 1)

        # --- lookup substrate ------------------------------------------
        if config.lookup == "chord":
            self.lookup = ChordLookup(
                list(range(num_seeds)), transport=self.transport
            )
            self._dir_entries: list[int] | None = None
        else:
            self.lookup = DirectoryLookup(transport=self.transport)
            # the directory's own live id array: sampling from it with the
            # lookup stream reproduces sample_candidates draw for draw
            self._dir_entries = self.lookup.directory.live_entries(
                self._media_id
            )

        # --- lifecycle dynamics (attached before seed registration) ----
        self._lifecycle_enabled = config.lifecycle != "none"
        if self._lifecycle_enabled:
            self._lifecycle_model = make_lifecycle(config, self.streams)
            self._lifecycle_rejoin = config.lifecycle_rejoin
            self._recovery = config.lifecycle_recovery
        self.sessions = SessionTable()
        self._sessions_by_supplier: dict[int, list[int]] = {}

        # --- seed suppliers, arrivals, samplers (this order fixes the
        # initial sequence numbers) --------------------------------------
        level = self.peers.level
        init_level = self._init_level
        for pid in range(num_seeds):
            level[pid] = init_level[classes[pid]]
            self._register(pid)

        requesters = len(classes) - num_seeds
        pattern_id = config.arrival_pattern
        window = config.arrival_window_seconds
        if config.deterministic_arrivals:
            times = deterministic_lane(pattern_id, window, requesters)
        else:
            times = generate_arrival_times(
                make_pattern(pattern_id, window),
                requesters,
                deterministic=False,
                rng=self.streams.arrivals,
            )
        # arrival i (peer num_seeds + i) carries sequence base + i; the
        # run loop merges this lane against the heap by (time, seq)
        self._arrival_times = times
        self._arrival_base_seq = self._seq + 1
        self._seq += requesters
        self._arrival_index = 0

        if self.metrics.wants_capacity_samples:
            self._sample_capacity(None)
        if self.metrics.wants_rate_samples:
            self._sample_rates(None)
        if self.metrics.wants_favored_samples:
            self._sample_favored(None)

        self._handlers = [
            self._on_request,
            self._on_session_end,
            self._on_idle_timeout,
            self._on_tracked_session_end,
            self._attempt_recovery,
            self._on_lifecycle_departure,
            self._on_lifecycle_return,
            self._sample_capacity,
            self._sample_rates,
            self._sample_favored,
        ]

    # ------------------------------------------------------------------
    # event scheduling
    # ------------------------------------------------------------------
    def _push(self, time: float, kind: int, payload: object) -> None:
        """Allocate the next sequence number; enqueue if within horizon.

        Events past the horizon would never be dispatched, so they are
        not stored — but their sequence number is still consumed, so
        every later allocation is the same whatever the horizon stores.
        """
        self._seq += 1
        if time <= self._horizon:
            heappush(self._heap, (time, self._seq, kind, payload))

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------
    def run(self) -> MetricsPipeline:
        """Dispatch every event through the horizon; returns the metrics."""
        heap = self._heap
        times = self._arrival_times
        total_arrivals = len(times)
        base_seq = self._arrival_base_seq
        num_seeds = self._num_seeds
        horizon = self._horizon

        # the loop allocates only small tuples that die young or park on
        # the heap; cycle collection can only stall it, so pause the
        # collector for the duration (restored even on handler errors)
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self._dispatch_all(
                heap, times, total_arrivals, base_seq, num_seeds, horizon
            )
        finally:
            if gc_was_enabled:
                gc.enable()
        if self.now < horizon:
            self.now = horizon
        return self.metrics

    def _dispatch_all(
        self,
        heap: list[tuple[float, int, int, object]],
        times: Sequence[float],
        total_arrivals: int,
        base_seq: int,
        num_seeds: int,
        horizon: float,
    ) -> None:
        """The dispatch loop proper (split out so ``run`` can gate gc)."""
        handlers = self._handlers
        on_request = self._on_request
        generations = self.sessions.generation
        events = self.events_processed
        i = self._arrival_index

        while True:
            if i < total_arrivals:
                arrival_at = times[i]
                if arrival_at > horizon:
                    i = total_arrivals  # sorted: no later arrival fires either
                    continue
                if heap:
                    head = heap[0]
                    if head[0] < arrival_at or (
                        head[0] == arrival_at and head[1] < base_seq + i
                    ):
                        time, _seq, kind, payload = heappop(heap)
                        if kind == _TRACKED_END and (
                            payload[1] != generations[payload[0]]
                        ):
                            continue  # cancelled by interruption
                        self.now = time
                        events += 1
                        handlers[kind](payload)
                        continue
                self.now = arrival_at
                i += 1
                events += 1
                on_request(num_seeds + i - 1)
                continue
            if not heap:
                break
            time, _seq, kind, payload = heappop(heap)
            if kind == _TRACKED_END and payload[1] != generations[payload[0]]:
                continue
            self.now = time
            events += 1
            handlers[kind](payload)

        self._arrival_index = i
        self.events_processed = events

    # ------------------------------------------------------------------
    # the request path
    # ------------------------------------------------------------------
    def _on_request(self, pid: int) -> None:
        peers = self.peers
        peer_class = peers.peer_class[pid]
        metrics = self.metrics
        if peers.first_request_time[pid] is None:
            peers.first_request_time[pid] = self.now
            metrics.first_requests[peer_class] += 1
        metrics.requests[peer_class] += 1
        outcome = self._probe_candidates(pid)
        if outcome is None:
            self._reject(pid, 0, None)
            return
        enlisted, contacted_busy, deficit = outcome
        if deficit == 0:
            self._admit(pid, enlisted)
        else:
            self._reject(
                pid, self._full_rate_units - deficit, contacted_busy
            )

    def _probe_candidates(
        self, pid: int
    ) -> tuple[list[int], list[tuple[int, int]] | None, int] | None:
        """The M-candidate probe loop over columns.

        Returns ``(enlisted ids, favoring busy (-units, id) pairs, deficit)``
        or ``None`` when the lookup yields no candidates.  Only *favoring*
        busy contacts are recorded — non-favoring ones can never enter the
        reminder set (``choose_reminder_set`` skips them), so dropping
        them on the floor is observationally identical.  Units are stored
        negated so the reject path's ``choose_reminder_set`` ordering
        (descending units, ascending id) is a plain tuple sort.
        """
        classes = self.peers.peer_class
        entries = self._dir_entries
        messages = self._messages
        if entries is not None:
            # central directory fast path: identical stdlib sampling calls
            # on the directory's own array (DirectoryLookup.candidates →
            # CentralDirectory.sample_candidates), minus the two calls
            if messages is not None:
                messages[LOOKUP] += 1
                messages[LOOKUP_REPLY] += 1
            population = len(entries)
            if not population:
                return None
            count = self._probe_count
            if count >= population:
                chosen = list(entries)
                self._lookup_rng.shuffle(chosen)
            elif population <= self._sample_setsize:
                # random.sample's pool path, inlined — with _randbelow's
                # getrandbits rejection loop inlined too (draw-for-draw
                # equal: same bit_length, same rejection rule)
                getrandbits = self._lookup_getrandbits
                pool = list(entries)
                chosen = [0] * count
                for idx in range(count):
                    n = population - idx
                    k = n.bit_length()
                    j = getrandbits(k)
                    while j >= n:
                        j = getrandbits(k)
                    chosen[idx] = pool[j]
                    pool[j] = pool[n - 1]
            else:
                # random.sample's selection-set path, inlined likewise
                # (the scratch set is reused across calls)
                getrandbits = self._lookup_getrandbits
                k = population.bit_length()
                selected = self._sample_selected
                selected.clear()
                selected_add = selected.add
                chosen = [0] * count
                for idx in range(count):
                    j = getrandbits(k)
                    while j >= population or j in selected:
                        j = getrandbits(k)
                    selected_add(j)
                    chosen[idx] = entries[j]
        else:
            chosen = self.lookup.candidates(
                self._media_id, self._probe_count, pid, self._lookup_rng
            )
            if not chosen:
                return None
        # stable sort by class keeps the random order within a class
        chosen.sort(key=classes.__getitem__)

        level = self.peers.level
        step = self.peers.step
        favored_flag = self.peers.favored_while_busy
        offer_units = self._offer_units
        admission_random = self._admission_random
        grant = self._grant
        collect_busy = self._uses_reminders
        requester_class = classes[pid]
        deficit = self._full_rate_units
        enlisted: list[int] = []
        contacted_busy: list[tuple[int, int]] | None = (
            [] if collect_busy else None
        )

        if not self._churn_active:
            # specialized copy of the probe loop below: most scenarios
            # disable probe loss, and its per-candidate check is measurable
            # at 100k+ peers
            for candidate in chosen:
                candidate_level = level[candidate]
                if candidate_level < 0:
                    if requester_class <= -candidate_level:
                        favored_flag[candidate] = 1
                        if collect_busy:
                            contacted_busy.append(
                                (-offer_units[classes[candidate]], candidate)
                            )
                    continue
                if candidate_level == 0:
                    raise SimulationError(
                        f"candidate {candidate} has no admission state"
                    )
                if requester_class <= candidate_level or (
                    admission_random()
                    < grant[step[candidate]][requester_class - candidate_level]
                ):
                    enlisted.append(candidate)
                    deficit -= offer_units[classes[candidate]]
                    if deficit == 0:
                        break
        else:
            churn_random = self._churn_rng.random
            p_down = self._p_down
            for candidate in chosen:
                if churn_random() < p_down:
                    continue
                candidate_level = level[candidate]
                if candidate_level < 0:
                    # busy: record a favored-class contact (and, for
                    # reminder policies, the report the reject path may
                    # remind)
                    if requester_class <= -candidate_level:
                        favored_flag[candidate] = 1
                        if collect_busy:
                            contacted_busy.append(
                                (-offer_units[classes[candidate]], candidate)
                            )
                    continue
                if candidate_level == 0:
                    raise SimulationError(
                        f"candidate {candidate} has no admission state"
                    )
                # grant test: favored classes outright, else the table
                # entry, which equals the state machine's stored float
                if requester_class <= candidate_level or (
                    admission_random()
                    < grant[step[candidate]][requester_class - candidate_level]
                ):
                    enlisted.append(candidate)
                    deficit -= offer_units[classes[candidate]]
                    if deficit == 0:
                        break
        if messages is not None:
            # one probe round trip per candidate visited, up to the one
            # that filled the deficit — lost probes (down candidates) too
            probed = (
                chosen.index(enlisted[-1]) + 1 if deficit == 0 else len(chosen)
            )
            messages[PROBE] += probed
            messages[PROBE_REPLY] += probed
        return enlisted, contacted_busy, deficit

    def _start_sessions(self, enlisted: list[int]) -> None:
        """``on_session_start`` of every enlisted supplier, on columns:
        flip idle +F to busy -F, clear the per-session bookkeeping and
        cancel any pending idle timer."""
        peers = self.peers
        level = peers.level
        favored_flag = peers.favored_while_busy
        reminder_min = peers.reminder_min_class
        idle_generation = peers.idle_generation
        for sid in enlisted:
            level[sid] = -level[sid]
            favored_flag[sid] = 0
            reminder_min[sid] = 0
            idle_generation[sid] += 1

    def _admit(self, pid: int, enlisted: list[int]) -> None:
        peers = self.peers
        delay_slots = self._buffering_delay_slots(enlisted)
        num_suppliers = len(enlisted)
        now = self.now
        self._start_sessions(enlisted)
        if self._messages is not None:
            self._messages[SESSION_START] += num_suppliers

        peers.admitted_time[pid] = now
        peers.buffering_delay_slots[pid] = delay_slots
        peers.num_suppliers_served_by[pid] = num_suppliers
        peer_class = peers.peer_class[pid]
        metrics = self.metrics
        metrics.admitted[peer_class] += 1
        metrics.rejections_before_admission_sum[peer_class] += peers.rejections[pid]
        metrics.suppliers_per_session_sum[peer_class] += num_suppliers
        metrics.buffering_delay_slots_sum[peer_class] += delay_slots
        metrics.waiting_seconds_sum[peer_class] += (
            now - peers.first_request_time[pid]
        ) or 0.0
        if self.trace:
            self.trace.record(
                "admission",
                now,
                peer=pid,
                peer_class=peer_class,
                suppliers=list(enlisted),
                delay_slots=delay_slots,
            )
        if self._tracks_sessions:
            slot = self.sessions.alloc(
                pid, tuple(enlisted), now, self._show_seconds
            )
            self._push(
                now + self._show_seconds,
                _TRACKED_END,
                (slot, self.sessions.generation[slot]),
            )
            self._track(slot)
        else:
            self._push(
                now + self._show_seconds, _SESSION_END, (pid, enlisted)
            )

    def _buffering_delay_slots(self, enlisted: list[int]) -> int:
        """OTS_p2p buffering delay, memoized by supplier-class multiset."""
        classes = self.peers.peer_class
        # enlisted in the probe's class order already (the candidates are
        # stable-sorted by class), so the key is the sorted multiset
        key = tuple([classes[sid] for sid in enlisted])
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
        pid: int,
        enlisted_units: int,
        contacted_busy: list[tuple[int, int]] | None,
    ) -> None:
        peers = self.peers
        peer_class = peers.peer_class[pid]
        rejections = peers.rejections[pid] + 1
        peers.rejections[pid] = rejections
        self.metrics.rejections[peer_class] += 1

        if contacted_busy:
            # choose_reminder_set over the favoring busy contacts: greedy
            # descending-units, ascending-id fill against the shortfall
            # (units are stored negated, so the plain sort gives that order)
            shortfall = self._full_rate_units - enlisted_units
            if shortfall > 0:
                contacted_busy.sort()
                reminder_min = peers.reminder_min_class
                messages = self._messages
                for neg_units, sid in contacted_busy:
                    units = -neg_units
                    if units <= shortfall:
                        current = reminder_min[sid]
                        if current == 0 or peer_class < current:
                            reminder_min[sid] = peer_class
                        self.metrics.reminders_left[peer_class] += 1
                        if messages is not None:
                            messages[REMINDER] += 1
                        shortfall -= units
                    if shortfall == 0:
                        break

        delay = self._backoff_by_rejections.get(rejections)
        if delay is None:
            delay = backoff_delay(rejections, self._t_bkf, self._e_bkf)
            self._backoff_by_rejections[rejections] = delay
        if self.trace:
            self.trace.record(
                "rejection",
                self.now,
                peer=pid,
                peer_class=peer_class,
                rejections=rejections,
                backoff_seconds=delay,
            )
        retry_at = self.now + delay
        if retry_at <= self._horizon:
            # _push inlined: one retry per rejection adds up at 100k peers
            self._seq = seq = self._seq + 1
            heappush(self._heap, (retry_at, seq, _REQUEST, pid))

    def _release_supplier(self, sid: int) -> None:
        """``on_session_end`` plus an idle-generation bump, on columns.

        Paper rule (c): tighten to the highest reminder class if any
        reminders arrived, elevate one step if no favored-class request
        did, otherwise keep the vector.
        """
        peers = self.peers
        busy = -peers.level[sid]  # busy -F → magnitude F
        level = busy
        reminded = peers.reminder_min_class[sid]
        if reminded:
            level = reminded
            peers.step[sid] = 0
        elif not peers.favored_while_busy[sid] and busy < self._num_classes:
            level = self._elevate(sid, busy)
        peers.level[sid] = level
        if level != busy and not peers.departed[sid]:
            self._favored_sum[peers.peer_class[sid]] += level - busy
        peers.favored_while_busy[sid] = 0
        peers.reminder_min_class[sid] = 0
        peers.idle_generation[sid] += 1

    def _elevate(self, sid: int, level: int) -> int:
        """One elevation table step of supplier ``sid``, whose lowest
        favored class ``level`` is below ``N``: advance its step and
        return ``min(N, level + gain[k])``."""
        step = self.peers.step
        k = step[sid]
        step[sid] = self._next_step[k]
        level += self._gain[k]
        return level if level < self._num_classes else self._num_classes

    def _on_session_end(self, payload: tuple[int, list[int]]) -> None:
        pid, enlisted = payload
        for sid in enlisted:
            self._release_supplier(sid)
            self._arm_idle_timer(sid)
        if self._messages is not None:
            self._messages[SESSION_END] += len(enlisted)
        self._promote(pid)

    def _promote(self, pid: int) -> None:
        """The served requester becomes a supplier (fresh initial vector).

        Its ``step`` is still 0: only a supplier's step ever moves.
        """
        peers = self.peers
        peers.level[pid] = self._init_level[peers.peer_class[pid]]
        self._register(pid)

    # ------------------------------------------------------------------
    # the supplier population and its idle-elevation timers
    # ------------------------------------------------------------------
    def _register(self, pid: int) -> None:
        """Add a supplier whose initial ``level`` its caller just set."""
        peer_class = self.peers.peer_class[pid]
        self.ledger.add_supplier(peer_class)
        self._favored_sum[peer_class] += self.peers.level[pid]
        self.lookup.register_supplier(self._media_id, pid)
        self._arm_idle_timer(pid)
        if self._lifecycle_enabled:
            self._lifecycle_activate(pid)
        if self.trace:
            self.trace.record(
                "supplier_joined",
                self.now,
                peer=pid,
                peer_class=peer_class,
                capacity=self.ledger.sessions,
            )

    def _arm_idle_timer(self, pid: int) -> None:
        if not self._uses_idle_elevation:
            return
        peers = self.peers
        level = peers.level[pid]
        if level <= 0 or peers.departed[pid]:
            return
        if level == self._num_classes:  # saturated: nothing to elevate
            return
        # _push inlined: this is the most frequent scheduling site
        self._seq = seq = self._seq + 1
        at = self.now + self._t_out
        if at <= self._horizon:
            heappush(
                self._heap,
                (at, seq, _IDLE_TIMEOUT, (pid, peers.idle_generation[pid])),
            )

    def _on_idle_timeout(self, payload: tuple[int, int]) -> None:
        pid, generation = payload
        peers = self.peers
        if generation != peers.idle_generation[pid]:
            return  # invalidated by a session start since it was armed
        level = peers.level[pid]
        if level <= 0 or peers.departed[pid]:
            return
        if level < self._num_classes:  # the vector changes
            elevated = self._elevate(pid, level)
            peers.level[pid] = elevated
            self._favored_sum[peers.peer_class[pid]] += elevated - level
            if self.trace:
                self.trace.record(
                    "idle_elevation",
                    self.now,
                    peer=pid,
                    lowest_favored=elevated,
                )
            self._arm_idle_timer(pid)

    # ------------------------------------------------------------------
    # lifecycle dynamics: departures, returns, busy re-checks
    # ------------------------------------------------------------------
    def _lifecycle_activate(self, pid: int) -> None:
        at = self._lifecycle_model.next_departure(pid, self.now)
        if at is None or at > self._horizon:
            return
        self._push(max(at, self.now), _LC_DEPARTURE, pid)

    def _on_lifecycle_departure(self, pid: int) -> None:
        peers = self.peers
        if peers.departed[pid]:
            return
        if not self._tracks_sessions and peers.level[pid] < 0:
            # busy under a model that lets sessions finish: re-check later
            self._push(
                self.now + DEPARTURE_RETRY_SECONDS, _LC_DEPARTURE, pid
            )
            return
        peer_class = peers.peer_class[pid]
        peers.departed[pid] = 1
        self._favored_sum[peer_class] -= abs(peers.level[pid])
        peers.departures[pid] += 1
        peers.idle_generation[pid] += 1
        self.ledger.remove_supplier(peer_class)
        self.lookup.unregister_supplier(self._media_id, pid)
        self.metrics.supplier_departures[peer_class] += 1
        if self.trace:
            self.trace.record(
                "supplier_departed",
                self.now,
                peer=pid,
                peer_class=peer_class,
                capacity=self.ledger.sessions,
            )
        # interrupt after the bookkeeping, so recovery probes can no
        # longer discover the departed supplier
        slots = self._sessions_by_supplier.pop(pid, None)
        if slots:
            for slot in list(slots):
                self._interrupt(slot, pid)
        if not self._lifecycle_rejoin:
            return
        at = self._lifecycle_model.next_return(pid, self.now)
        if at is None or at > self._horizon:
            return
        self._push(max(at, self.now), _LC_RETURN, pid)

    def _on_lifecycle_return(self, pid: int) -> None:
        peers = self.peers
        if not peers.departed[pid]:
            return
        peer_class = peers.peer_class[pid]
        peers.departed[pid] = 0
        self._favored_sum[peer_class] += abs(peers.level[pid])
        self.ledger.add_supplier(peer_class)
        self.lookup.register_supplier(self._media_id, pid)
        self.metrics.supplier_rejoins[peer_class] += 1
        self._arm_idle_timer(pid)
        if self.trace:
            self.trace.record(
                "supplier_rejoined",
                self.now,
                peer=pid,
                peer_class=peer_class,
                capacity=self.ledger.sessions,
            )
        self._lifecycle_activate(pid)

    # ------------------------------------------------------------------
    # tracked sessions: interruption and recovery
    # ------------------------------------------------------------------
    def _track(self, slot: int) -> None:
        by_supplier = self._sessions_by_supplier
        for sid in self.sessions.suppliers[slot]:
            by_supplier.setdefault(sid, []).append(slot)

    def _untrack(self, slot: int) -> None:
        by_supplier = self._sessions_by_supplier
        for sid in self.sessions.suppliers[slot]:
            slots = by_supplier.get(sid)
            if slots is not None:
                try:
                    slots.remove(slot)
                except ValueError:
                    pass  # the departing supplier's entry was popped whole
                if not slots:
                    del by_supplier[sid]

    def _on_tracked_session_end(self, payload: tuple[int, int]) -> None:
        slot = payload[0]
        sessions = self.sessions
        self._untrack(slot)
        pid = sessions.requester[slot]
        suppliers = sessions.suppliers[slot]
        for sid in suppliers:
            self._release_supplier(sid)
            self._arm_idle_timer(sid)
        if self._messages is not None:
            self._messages[SESSION_END] += len(suppliers)
        show = self._show_seconds
        stall = sessions.stall_seconds[slot]
        peer_class = self.peers.peer_class[pid]
        metrics = self.metrics
        metrics.completed_sessions[peer_class] += 1
        metrics.continuity_sum[peer_class] += show / (show + stall)
        if sessions.interruptions[slot]:
            metrics.interrupted_completions[peer_class] += 1
        sessions.release(slot)
        self._promote(pid)

    def _interrupt(self, slot: int, departed_pid: int) -> None:
        now = self.now
        sessions = self.sessions
        sessions.generation[slot] += 1  # cancels the scheduled end event
        self._untrack(slot)
        elapsed = now - sessions.resumed_at[slot]
        sessions.remaining_seconds[slot] = max(
            0.0, sessions.remaining_seconds[slot] - elapsed
        )
        pid = sessions.requester[slot]
        messages = self._messages
        for sid in sessions.suppliers[slot]:
            # free every enlisted supplier — including the departed one,
            # whose busy level must not survive into its next online period
            self._release_supplier(sid)
            if sid != departed_pid:
                self._arm_idle_timer(sid)
                if messages is not None:
                    messages[SESSION_INTERRUPT] += 1
        sessions.interruptions[slot] += 1
        sessions.interrupted_at[slot] = now
        sessions.recovery_attempts[slot] = 0
        peer_class = self.peers.peer_class[pid]
        self.metrics.interruptions[peer_class] += 1
        if self.trace:
            self.trace.record(
                "session_interrupted",
                now,
                peer=pid,
                peer_class=peer_class,
                departed=departed_pid,
                remaining_seconds=sessions.remaining_seconds[slot],
            )
        if self._recovery == "abandon":
            self.metrics.sessions_lost[peer_class] += 1
            sessions.release(slot)
            return
        if self._recovery == "restart":
            sessions.remaining_seconds[slot] = self._show_seconds
        self._push(now, _RECOVERY, slot)

    def _attempt_recovery(self, slot: int) -> None:
        sessions = self.sessions
        pid = sessions.requester[slot]
        outcome = self._probe_candidates(pid)
        enlisted: list[int] = []
        deficit = self._full_rate_units
        if outcome is not None:
            enlisted, _contacted_busy, deficit = outcome
        if deficit == 0:
            self._resume(slot, enlisted)
            return
        attempts = sessions.recovery_attempts[slot] + 1
        sessions.recovery_attempts[slot] = attempts
        peer_class = self.peers.peer_class[pid]
        self.metrics.recovery_retries[peer_class] += 1
        delay = self._backoff_by_rejections.get(attempts)
        if delay is None:
            delay = backoff_delay(attempts, self._t_bkf, self._e_bkf)
            self._backoff_by_rejections[attempts] = delay
        retry_at = self.now + delay
        if retry_at <= self._horizon:
            self._push(retry_at, _RECOVERY, slot)
        else:
            self.metrics.sessions_lost[peer_class] += 1
            if self.trace:
                self.trace.record(
                    "session_lost",
                    self.now,
                    peer=pid,
                    peer_class=peer_class,
                    recovery_attempts=attempts,
                )
            sessions.release(slot)

    def _resume(self, slot: int, enlisted: list[int]) -> None:
        now = self.now
        sessions = self.sessions
        peers = self.peers
        pid = sessions.requester[slot]
        delay_slots = self._buffering_delay_slots(enlisted)
        self._start_sessions(enlisted)
        if self._messages is not None:
            self._messages[SESSION_RESUME] += len(enlisted)
        latency = now - sessions.interrupted_at[slot]
        stall = latency + self.media.slots_to_seconds(delay_slots)
        sessions.stall_seconds[slot] += stall
        sessions.interrupted_at[slot] = None
        sessions.suppliers[slot] = tuple(enlisted)
        sessions.resumed_at[slot] = now
        self._push(
            now + sessions.remaining_seconds[slot],
            _TRACKED_END,
            (slot, sessions.generation[slot]),
        )
        self._track(slot)
        peer_class = peers.peer_class[pid]
        metrics = self.metrics
        metrics.recovered_sessions[peer_class] += 1
        metrics.recovery_latency_sum[peer_class] += latency
        metrics.stall_seconds_sum[peer_class] += stall
        if self.trace:
            self.trace.record(
                "session_resumed",
                now,
                peer=pid,
                peer_class=peer_class,
                suppliers=list(enlisted),
                recovery_latency_seconds=latency,
                remaining_seconds=sessions.remaining_seconds[slot],
            )

    # ------------------------------------------------------------------
    # samplers (the t=0 samples run inline at construction)
    # ------------------------------------------------------------------
    def _sample_capacity(self, _payload: object = None) -> None:
        self.metrics.sample_capacity(self.now, self.ledger)
        next_time = self.now + CAPACITY_SAMPLE_SECONDS
        if next_time <= self._horizon:
            self._push(next_time, _SAMPLE_CAPACITY, None)

    def _sample_rates(self, _payload: object = None) -> None:
        self.metrics.sample_rates(self.now)
        next_time = self.now + RATE_SAMPLE_SECONDS
        if next_time <= self._horizon:
            self._push(next_time, _SAMPLE_RATES, None)

    def _sample_favored(self, _payload: object = None) -> None:
        self.metrics.sample_favored(
            self.now, self._favored_sum, self.ledger.per_class_count
        )
        next_time = self.now + FAVORED_SAMPLE_SECONDS
        if next_time <= self._horizon:
            self._push(next_time, _SAMPLE_FAVORED, None)
