"""The array engine's admission columns and probes against the paper's logic.

:class:`~repro.simulation.arrayengine.ArrayEngine` holds a supplier's
admission vector as two small integers: its lowest favored class (the
``level`` column, negated while busy) and its linear elevation steps
(the ``step`` column), read through the engine's ``grant``/``gain``/
``next_step`` tables; a requester's probe walks those columns inline.
The readable logic of :mod:`repro.core.admission`, :mod:`repro.protocols`
and :mod:`repro.core.requesting` is the reference:

* For every registered policy and ladders of 2–8 classes, one supplier's
  ``make_supplier_state(c, ladder)`` and its columns go through the same
  random event sequences — session start, probes from requesters of any
  class while it is busy, favored requesters rejected with a reminder,
  session end, idle timeout — each event through the engine's own
  handler (``_start_sessions``, ``_probe_candidates``, ``_reject``,
  ``_release_supplier``, ``_on_idle_timeout``), and every observable is
  compared after every event.  A policy the tables cannot represent
  fails here.
* For random populations, with and without probe loss, every probe is
  replayed on copies of the engine's random streams through
  ``DirectoryLookup.candidates``, the state machines, ``greedy_fill``
  and ``choose_reminder_set``: the same draws, the same enlisted
  suppliers and deficit, the same busy contacts flagged and the same
  reminders left.

The one engine expression this module copies is the grant read below
the lowest favored class, ``grant[step][rc - F]``, which
:func:`assert_same_vector` checks against ``grant_probability`` entry by
entry.
"""

import random

import pytest

from repro.core.model import ClassLadder
from repro.core.requesting import (
    CandidateReport,
    CandidateStatus,
    choose_reminder_set,
    greedy_fill,
)
from repro.protocols import POLICY_REGISTRY, make_policy
from repro.simulation.arrayengine import ArrayEngine
from repro.simulation.config import SimulationConfig
from repro.simulation.trace import TraceRecorder

STEPS_PER_SUPPLIER = 300
POPULATIONS = 12
EVENTS_PER_POPULATION = 150


def engine_for(policy_name: str, num_classes: int, seed_suppliers, **overrides):
    """An engine over idle seed suppliers and one requester of every class.

    Requesters are never promoted, so the directory holds only the seeds.
    """
    config = SimulationConfig(
        num_classes=num_classes,
        seed_suppliers=seed_suppliers,
        requesting_peers={c: 1 for c in range(1, num_classes + 1)},
        protocol=policy_name,
        track_messages=False,
        **overrides,
    )
    return ArrayEngine(config, trace=TraceRecorder())


def requester_of_class(engine) -> dict[int, int]:
    classes = engine.peers.peer_class
    return {classes[pid]: pid for pid in range(engine._num_seeds, len(classes))}


def clone(rng: random.Random) -> random.Random:
    copy = random.Random()
    copy.setstate(rng.getstate())
    return copy


def assert_same_vector(engine, pid, state, ladder, context):
    """The columns read as the state machine's vector, class by class."""
    peers = engine.peers
    favored = abs(peers.level[pid])
    assert favored == state.lowest_favored_class(), context
    for j in ladder.classes:
        # the engine's grant test: favored classes outright, else the table
        grant = 1.0 if j <= favored else engine._grant[peers.step[pid]][j - favored]
        assert grant == state.grant_probability(j), (context, j)
        assert (j <= favored) == state.favors(j), (context, j)


def assert_same_session_records(engine, pid, state, context):
    """The per-session flags match the state machine's records (NDAC's
    state keeps none, and every class is favored there anyway)."""
    if not hasattr(state, "reminder_classes"):
        return
    peers = engine.peers
    assert peers.favored_while_busy[pid] == state.favored_request_while_busy, context
    assert peers.reminder_min_class[pid] == min(state.reminder_classes, default=0), (
        context
    )


def drive(policy_name, own_class, ladder, rng):
    """One random event sequence through both representations of one
    supplier; returns the largest step its columns took."""
    policy = make_policy(policy_name)
    engine = engine_for(policy_name, ladder.num_classes, {own_class: 1})
    requester = requester_of_class(engine)
    peers = engine.peers
    pid = 0  # the only seed, so every probe reaches it
    state = policy.make_supplier_state(own_class, ladder)
    trace = engine.trace
    max_step = 0
    history = []
    assert_same_vector(engine, pid, state, ladder, ("initial", own_class))
    for _ in range(STEPS_PER_SUPPLIER):
        if not state.busy:
            moves = ["start"]
            if policy.uses_idle_elevation:
                moves += ["idle_timeout"] * 3
        else:
            moves = ["busy_request", "end", "end"]
            if policy.uses_reminders:
                moves.append("reminder")
        move = rng.choice(moves)
        requester_class = rng.randint(1, ladder.num_classes)
        if move == "reminder":
            requester_class = rng.randint(1, state.lowest_favored_class())
        history.append((move, requester_class))
        context = (own_class, history[-12:])
        if move == "start":
            state.on_session_start()
            engine._start_sessions([pid])
        elif move == "busy_request":
            # the probe reaches the busy supplier; its requester is served
            # elsewhere, so no reminder follows
            state.on_request_while_busy(requester_class)
            engine._probe_candidates(requester[requester_class])
        elif move == "reminder":
            # a favored requester finds the supplier busy and is rejected:
            # its whole rate is short, so the supplier's offer fits the
            # reminder set
            state.on_request_while_busy(requester_class)
            state.on_reminder(requester_class)
            enlisted, contacted_busy, deficit = engine._probe_candidates(
                requester[requester_class]
            )
            assert not enlisted and deficit == ladder.full_rate_units, context
            engine._reject(requester[requester_class], 0, contacted_busy)
        elif move == "end":
            state.on_session_end()
            engine._release_supplier(pid)
        else:
            elevations = len(trace.events)
            changed = state.on_idle_timeout()
            engine._on_idle_timeout((pid, peers.idle_generation[pid]))
            elevated = trace.events[elevations:]
            assert bool(elevated) == changed, context
            if changed:
                assert elevated[-1]["kind"] == "idle_elevation", context
                lowest = elevated[-1]["lowest_favored"]
                assert lowest == state.lowest_favored_class(), context
        assert peers.level[pid] != 0 and (peers.level[pid] < 0) == state.busy
        assert_same_vector(engine, pid, state, ladder, context)
        assert_same_session_records(engine, pid, state, context)
        max_step = max(max_step, peers.step[pid])
    return max_step


@pytest.mark.parametrize("policy_name", sorted(POLICY_REGISTRY))
def test_columns_follow_the_state_machine(policy_name):
    rng = random.Random(f"admission-columns:{policy_name}")
    max_step = 0
    for num_classes in range(2, 9):
        ladder = ClassLadder(num_classes)
        for own_class in ladder.classes:
            max_step = max(max_step, drive(policy_name, own_class, ladder, rng))
    if policy_name == "dac-linear-elevation":
        # 0.5 ** 7 + 7/8 < 1, so favoring all of an 8-class ladder from
        # class 1 takes all 8 steps
        assert max_step == 8
    else:
        assert max_step == 0


def replay_probe(engine, policy, states, pid, ladder, context):
    """Run one probe (and its admission or rejection) on the engine and on
    the reference, and compare what each chose."""
    requester_class = engine.peers.peer_class[pid]
    lookup_rng = clone(engine._lookup_rng)
    admission_rng = clone(engine.streams.admission)
    churn_rng = clone(engine._churn_rng)
    outcome = engine._probe_candidates(pid)

    # the reference: the directory's sample, contacted high class first
    # (a stable sort keeps the sample's order within a class)
    candidates = engine.lookup.candidates(
        engine._media_id, engine._probe_count, pid, lookup_rng
    )
    assert lookup_rng.getstate() == engine._lookup_rng.getstate(), context
    if not candidates:
        assert outcome is None, context
        return
    candidates.sort(key=lambda candidate: candidate[1])
    down_probability = engine.config.down_probability
    granted: list[CandidateReport] = []
    busy: list[CandidateReport] = []
    for candidate_id, candidate_class in candidates:
        if down_probability and churn_rng.random() < down_probability:
            continue  # the probe is lost
        state = states[candidate_id]
        units = ladder.offer_units(candidate_class)
        if state.busy:
            state.on_request_while_busy(requester_class)
            busy.append(
                CandidateReport(
                    candidate_id,
                    candidate_class,
                    units,
                    CandidateStatus.BUSY,
                    favors_requester=state.favors(requester_class),
                )
            )
            continue
        probability = state.grant_probability(requester_class)
        if probability >= 1.0 or admission_rng.random() < probability:
            granted.append(
                CandidateReport(
                    candidate_id, candidate_class, units, CandidateStatus.GRANTED
                )
            )
            if greedy_fill(granted, ladder)[1] == 0:
                break  # the full rate is covered: stop contacting
    selected, deficit = greedy_fill(granted, ladder)

    enlisted, contacted_busy, engine_deficit = outcome
    assert sorted(enlisted) == sorted(r.peer_id for r in selected), context
    assert engine_deficit == deficit, context
    assert admission_rng.getstate() == engine.streams.admission.getstate(), context
    assert churn_rng.getstate() == engine._churn_rng.getstate(), context
    if deficit == 0:
        for report in selected:
            states[report.peer_id].on_session_start()
        engine._start_sessions(enlisted)
        return
    reminded = (
        choose_reminder_set(busy, deficit) if policy.uses_reminders else []
    )
    for report in reminded:
        states[report.peer_id].on_reminder(requester_class)
    left_before = engine.metrics.reminders_left[requester_class]
    engine._reject(pid, ladder.full_rate_units - deficit, contacted_busy)
    left = engine.metrics.reminders_left[requester_class] - left_before
    assert left == len(reminded), context


@pytest.mark.parametrize("down_probability", [0.0, 0.2])
@pytest.mark.parametrize("policy_name", sorted(POLICY_REGISTRY))
def test_probes_follow_the_requester_logic(policy_name, down_probability):
    policy = make_policy(policy_name)
    rng = random.Random(f"request-choices:{policy_name}:{down_probability}")
    outcomes = set()
    for population in range(POPULATIONS):
        num_classes = rng.randint(2, 8)
        ladder = ClassLadder(num_classes)
        seeds = {c: rng.randint(0, 3) for c in ladder.classes}
        seeds[rng.randint(1, num_classes)] += 1
        engine = engine_for(
            policy_name,
            num_classes,
            seeds,
            probe_candidates=rng.randint(4, 16),
            down_probability=down_probability,
            master_seed=rng.randrange(2**32),
        )
        peers = engine.peers
        requester = requester_of_class(engine)
        seed_ids = range(engine._num_seeds)
        states = [
            policy.make_supplier_state(peers.peer_class[sid], ladder)
            for sid in seed_ids
        ]
        for event in range(EVENTS_PER_POPULATION):
            sid = rng.choice(seed_ids)
            move = rng.choice(["probe", "probe", "probe", "end", "idle_timeout"])
            context = (population, event, move, sid)
            if move == "probe":
                requester_class = rng.randint(1, num_classes)
                reminders = engine.metrics.reminders_left[requester_class]
                replay_probe(
                    engine, policy, states, requester[requester_class], ladder,
                    context,
                )
                reminded = engine.metrics.reminders_left[requester_class] > reminders
                outcomes.add("reminded" if reminded else "probed")
            elif move == "end" and states[sid].busy:
                states[sid].on_session_end()
                engine._release_supplier(sid)
            elif (
                move == "idle_timeout"
                and policy.uses_idle_elevation
                and not states[sid].busy
            ):
                states[sid].on_idle_timeout()
                engine._on_idle_timeout((sid, peers.idle_generation[sid]))
            for other in seed_ids:
                assert_same_vector(engine, other, states[other], ladder, context)
                assert_same_session_records(engine, other, states[other], context)
            outcomes.add("busy" if any(s.busy for s in states) else "idle")
    expected = {"probed", "busy", "idle"}
    if policy.uses_reminders:
        expected.add("reminded")
    assert expected <= outcomes
