"""Event ordering of the array engine: its heap and its arrival lane.

Every run's determinism rests on one dispatch contract: events fire in
``(time, sequence)`` order, a sequence number is taken per scheduled
event (in scheduling order), and requester arrivals — kept off the heap
in a pre-sorted lane — merge into that order by the sequence numbers
they took at construction.  These tests drive the heap with recording
handlers.
"""

import random
from functools import partial

from repro.simulation.arrayengine import _IDLE_TIMEOUT, ArrayEngine
from repro.simulation.config import SimulationConfig

HOUR = 3600.0


class RecordingEngine(ArrayEngine):
    """An engine whose handlers only record what they dispatch."""

    def __init__(self, config):
        super().__init__(config)
        self.fired = []
        self._handlers = [
            partial(self._record, kind) for kind in range(len(self._handlers))
        ]

    def _record(self, kind, payload):
        self.fired.append((self.now, kind, payload))

    def _on_request(self, pid):
        self.fired.append((self.now, "arrival", pid))


def recording_engine(**overrides):
    """A tiny engine with nothing on its heap and no arrivals.

    NDAC arms no idle timers and, with no probe subscribed, no sampler
    clock runs.
    """
    defaults = dict(
        seed_suppliers={1: 2},
        requesting_peers={1: 1, 2: 1, 3: 1, 4: 1},
        protocol="ndac",
        probes=(),
        track_messages=False,
        arrival_window_seconds=10 * HOUR,
        horizon_seconds=10 * HOUR,
    )
    defaults.update(overrides)
    engine = RecordingEngine(SimulationConfig(**defaults))
    engine._arrival_times = []
    return engine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = recording_engine()
        engine._push(5.0, 0, "late")
        engine._push(1.0, 0, "early")
        engine._push(3.0, 0, "middle")
        engine.run()
        assert [payload for _t, _kind, payload in engine.fired] == [
            "early", "middle", "late"
        ]

    def test_simultaneous_events_fifo(self):
        engine = recording_engine()
        for label in "abcde":
            engine._push(2.0, 0, label)
        engine.run()
        assert [payload for _t, _kind, payload in engine.fired] == list("abcde")

    def test_arrivals_and_heap_events_merge_by_sequence(self):
        # under DAC, construction arms each seed's idle timer before the
        # arrival lane takes its sequence numbers; an event pushed after
        # construction takes a later one than every arrival
        engine = recording_engine(protocol="dac")
        t_out = engine.config.t_out_seconds
        engine._arrival_times = [t_out] * 4
        engine._push(t_out, 0, "pushed")
        engine.run()
        assert engine.fired == [
            (t_out, _IDLE_TIMEOUT, (0, 0)),
            (t_out, _IDLE_TIMEOUT, (1, 0)),
            (t_out, "arrival", 2),
            (t_out, "arrival", 3),
            (t_out, "arrival", 4),
            (t_out, "arrival", 5),
            (t_out, 0, "pushed"),
        ]

    def test_random_workload_fires_in_time_then_schedule_order(self):
        """Random times, some past the horizon, against a sorted oracle."""
        rng = random.Random(42)
        engine = recording_engine()
        horizon = engine.config.horizon_seconds
        scheduled = []
        for order in range(500):
            time = round(rng.uniform(0.0, 1.2 * horizon), 3)
            scheduled.append((time, order))
            engine._push(time, 0, order)
        engine.run()
        expected = sorted(event for event in scheduled if event[0] <= horizon)
        assert [(t, payload) for t, _kind, payload in engine.fired] == expected


class TestRunUntil:
    """``run()`` dispatches until the config's horizon."""

    def test_event_exactly_at_horizon_fires(self):
        engine = recording_engine()
        horizon = engine.config.horizon_seconds
        engine._push(horizon, 0, "edge")
        engine.run()
        assert engine.fired == [(horizon, 0, "edge")]
        assert engine.now == horizon

    def test_event_past_horizon_takes_a_sequence_number_but_is_never_stored(self):
        engine = recording_engine()
        before = engine._seq
        engine._push(engine.config.horizon_seconds + 1.0, 0, "late")
        assert engine._seq == before + 1
        assert not engine._heap
        engine._push(1.0, 0, "in")
        assert engine._heap == [(1.0, before + 2, 0, "in")]
        engine.run()
        assert [payload for _t, _kind, payload in engine.fired] == ["in"]
