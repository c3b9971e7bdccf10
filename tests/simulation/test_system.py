"""Behavioral tests of the streaming system (protocol interactions)."""

from collections import Counter

import pytest

from repro.simulation.arrayengine import ArrayEngine
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import run_simulation
from repro.simulation.trace import TraceRecorder

HOUR = 3600.0


def small_config(**overrides):
    defaults = dict(
        seed_suppliers={1: 4},
        requesting_peers={1: 10, 2: 10, 3: 40, 4: 40},
        arrival_pattern=1,
        horizon_seconds=144 * HOUR,
        master_seed=7,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def seeds(engine):
    """Seed ids: the peers that start as suppliers."""
    return [pid for pid in range(len(engine.peers)) if engine.peers.level[pid]]


def requesters(engine):
    """Requester ids, in arrival order: the peers that start without state."""
    return [
        pid for pid in range(len(engine.peers)) if not engine.peers.level[pid]
    ]


class TestPopulationConstruction:
    def test_population_counts(self):
        engine = ArrayEngine(small_config())
        assert len(engine.peers) == 104
        seed_ids = seeds(engine)
        assert seed_ids == [0, 1, 2, 3]
        assert all(engine.peers.peer_class[pid] == 1 for pid in seed_ids)

    def test_seeds_registered_as_suppliers(self):
        engine = ArrayEngine(small_config())
        assert engine.ledger.num_suppliers == 4
        assert engine.ledger.sessions == 2  # 4 x R0/2

    def test_requester_class_mix(self):
        engine = ArrayEngine(small_config())
        mix = Counter(engine.peers.peer_class[pid] for pid in requesters(engine))
        assert mix == {1: 10, 2: 10, 3: 40, 4: 40}

    def test_class_labels_shuffled_over_arrival_order(self):
        # Requesters arrive in peer-id order; their classes must be mixed,
        # not blocked by class.
        engine = ArrayEngine(small_config())
        first_half = [
            engine.peers.peer_class[pid] for pid in requesters(engine)[:50]
        ]
        assert len(set(first_half)) > 1


class TestEndToEnd:
    def test_everyone_eventually_admitted(self):
        engine = ArrayEngine(small_config())
        metrics = engine.run()
        assert sum(metrics.admitted.values()) == 100
        assert all(engine.peers.level), (
            "every admitted peer must end as a supplier"
        )

    def test_capacity_reaches_population_maximum(self):
        metrics = run_simulation(small_config()).metrics
        # 4+10 class-1, 10 class-2, 40 class-3, 40 class-4
        expected = (14 * 8 + 10 * 4 + 40 * 2 + 40 * 1) // 16
        assert metrics.final_capacity() == expected

    def test_admitted_peers_record_session_facts(self):
        engine = ArrayEngine(small_config())
        engine.run()
        peers = engine.peers
        for pid in range(4, len(peers)):
            assert peers.buffering_delay_slots[pid] == (
                peers.num_suppliers_served_by[pid]
            )
            assert peers.num_suppliers_served_by[pid] >= 2  # max offer is R0/2

    def test_deterministic_for_fixed_seed(self):
        result_a = ArrayEngine(small_config()).run().to_dict()
        result_b = ArrayEngine(small_config()).run().to_dict()
        assert result_a == result_b

    def test_different_seed_changes_outcome(self):
        a = ArrayEngine(small_config(master_seed=1)).run().to_dict()
        b = ArrayEngine(small_config(master_seed=2)).run().to_dict()
        assert a != b

    def test_chord_lookup_end_to_end(self):
        config = small_config(lookup="chord", seed_suppliers={1: 8})
        metrics = ArrayEngine(config).run()
        assert sum(metrics.admitted.values()) == 100

    def test_message_stats_recorded(self):
        engine = ArrayEngine(small_config())
        engine.run()
        stats = engine.transport.snapshot()
        assert stats["count_probe"] == stats["count_probe_reply"] > 0
        assert stats["count_session_start"] > 0

    def test_tracking_disabled_skips_transport(self):
        engine = ArrayEngine(small_config(track_messages=False))
        assert engine.transport is None
        engine.run()  # must still work


class TestProtocolInteractions:
    def test_sessions_respect_single_session_per_supplier(self):
        trace = TraceRecorder()
        ArrayEngine(small_config(), trace=trace).run()
        # Replay admissions/session lifetimes: a supplier must never be
        # enlisted twice within one show time.
        busy_until: dict[int, float] = {}
        for event in trace.of_kind("admission"):
            for supplier_id in event["suppliers"]:
                assert busy_until.get(supplier_id, -1.0) <= event["t"]
                busy_until[supplier_id] = event["t"] + 3600.0

    def test_admission_uses_exactly_r0_of_bandwidth(self):
        trace = TraceRecorder()
        engine = ArrayEngine(small_config(), trace=trace)
        engine.run()
        ladder = engine.ladder
        for event in trace.of_kind("admission"):
            total = sum(
                ladder.offer_units(engine.peers.peer_class[pid])
                for pid in event["suppliers"]
            )
            assert total == ladder.full_rate_units

    def test_rejections_backoff_exponentially(self):
        trace = TraceRecorder()
        ArrayEngine(small_config(), trace=trace).run()
        rejections = trace.of_kind("rejection")
        assert rejections, "a tiny seed population must cause rejections"
        for event in rejections:
            expected = 600.0 * 2.0 ** (event["rejections"] - 1)
            assert event["backoff_seconds"] == expected

    def test_ndac_never_elevates_or_reminds(self):
        trace = TraceRecorder()
        metrics = ArrayEngine(small_config(protocol="ndac"), trace=trace).run()
        assert trace.count("idle_elevation") == 0
        assert sum(metrics.reminders_left.values()) == 0

    def test_dac_leaves_reminders_under_contention(self):
        metrics = ArrayEngine(small_config()).run()
        assert sum(metrics.reminders_left.values()) > 0

    def test_down_probability_slows_admission(self):
        healthy = ArrayEngine(small_config()).run()
        flaky = ArrayEngine(small_config(down_probability=0.5)).run()
        assert sum(flaky.rejections.values()) > sum(healthy.rejections.values())

    def test_no_elevation_policy_arms_no_timers(self):
        trace = TraceRecorder()
        ArrayEngine(small_config(protocol="dac-no-elevation"), trace=trace).run()
        assert trace.count("idle_elevation") == 0

    def test_idle_elevation_happens_for_dac(self):
        trace = TraceRecorder()
        ArrayEngine(small_config(), trace=trace).run()
        assert trace.count("idle_elevation") > 0


class TestDifferentiation:
    def test_higher_class_admitted_with_fewer_rejections(self):
        config = small_config(
            requesting_peers={1: 40, 2: 40, 3: 160, 4: 160},
            seed_suppliers={1: 8},
        )
        metrics = run_simulation(config).metrics
        rejections = metrics.mean_rejections_before_admission()
        assert rejections[1] < rejections[4]

    def test_favored_series_relaxes_to_bottom_class(self):
        metrics = ArrayEngine(small_config()).run()
        # By the end of the run every supplier favors everyone (paper Fig 7).
        final = metrics.favored_series[1][-1].value
        assert final == pytest.approx(4.0, abs=0.01)
