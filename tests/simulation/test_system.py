"""Behavioral tests of the streaming system (protocol interactions)."""

import pytest

from repro.core.model import PeerRole
from repro.simulation.config import SimulationConfig
from repro.simulation.system import StreamingSystem
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


class TestPopulationConstruction:
    def test_population_counts(self):
        system = StreamingSystem(small_config())
        assert len(system.peers) == 104
        seeds = [p for p in system.peers if p.is_seed]
        assert len(seeds) == 4
        assert all(p.peer_class == 1 for p in seeds)

    def test_seeds_registered_as_suppliers(self):
        system = StreamingSystem(small_config())
        assert system.num_suppliers == 4
        assert system.ledger.sessions == 2  # 4 x R0/2

    def test_requester_class_mix(self):
        system = StreamingSystem(small_config())
        from collections import Counter

        mix = Counter(p.peer_class for p in system.peers if not p.is_seed)
        assert mix == {1: 10, 2: 10, 3: 40, 4: 40}

    def test_class_labels_shuffled_over_arrival_order(self):
        # Requesters arrive in peer-id order; their classes must be mixed,
        # not blocked by class.
        system = StreamingSystem(small_config())
        requesters = [p for p in system.peers if not p.is_seed]
        first_half = [p.peer_class for p in requesters[:50]]
        assert len(set(first_half)) > 1


class TestEndToEnd:
    def test_everyone_eventually_admitted(self):
        system = StreamingSystem(small_config())
        metrics = system.run()
        assert sum(metrics.admitted.values()) == 100
        assert all(
            p.role is PeerRole.SUPPLYING for p in system.peers
        ), "every admitted peer must end as a supplier"

    def test_capacity_reaches_population_maximum(self):
        system = StreamingSystem(small_config())
        metrics = system.run()
        # 4+10 class-1, 10 class-2, 40 class-3, 40 class-4
        expected = (14 * 8 + 10 * 4 + 40 * 2 + 40 * 1) // 16
        assert metrics.final_capacity() == expected

    def test_admitted_peers_record_session_facts(self):
        system = StreamingSystem(small_config())
        system.run()
        admitted = [p for p in system.peers if not p.is_seed]
        for peer in admitted:
            assert peer.buffering_delay_slots == peer.num_suppliers_served_by
            assert peer.num_suppliers_served_by >= 2  # max offer is R0/2

    def test_deterministic_for_fixed_seed(self):
        result_a = StreamingSystem(small_config()).run().to_dict()
        result_b = StreamingSystem(small_config()).run().to_dict()
        assert result_a == result_b

    def test_different_seed_changes_outcome(self):
        a = StreamingSystem(small_config(master_seed=1)).run().to_dict()
        b = StreamingSystem(small_config(master_seed=2)).run().to_dict()
        assert a != b

    def test_chord_lookup_end_to_end(self):
        config = small_config(lookup="chord", seed_suppliers={1: 8})
        system = StreamingSystem(config)
        metrics = system.run()
        assert sum(metrics.admitted.values()) == 100

    def test_message_stats_recorded(self):
        system = StreamingSystem(small_config())
        system.run()
        stats = system.transport.snapshot()
        assert stats["count_probe"] == stats["count_probe_reply"] > 0
        assert stats["count_session_start"] > 0

    def test_tracking_disabled_skips_transport(self):
        system = StreamingSystem(small_config(track_messages=False))
        assert system.transport is None
        system.run()  # must still work


class TestProtocolInteractions:
    def test_sessions_respect_single_session_per_supplier(self):
        trace = TraceRecorder()
        system = StreamingSystem(small_config(), trace=trace)
        system.run()
        # Replay admissions/session lifetimes: a supplier must never be
        # enlisted twice within one show time.
        busy_until: dict[int, float] = {}
        for event in trace.of_kind("admission"):
            for supplier_id in event["suppliers"]:
                assert busy_until.get(supplier_id, -1.0) <= event["t"]
                busy_until[supplier_id] = event["t"] + 3600.0

    def test_admission_uses_exactly_r0_of_bandwidth(self):
        trace = TraceRecorder()
        system = StreamingSystem(small_config(), trace=trace)
        system.run()
        ladder = system.ladder
        for event in trace.of_kind("admission"):
            total = sum(
                ladder.offer_units(system.peers[pid].peer_class)
                for pid in event["suppliers"]
            )
            assert total == ladder.full_rate_units

    def test_rejections_backoff_exponentially(self):
        trace = TraceRecorder()
        system = StreamingSystem(small_config(), trace=trace)
        system.run()
        rejections = trace.of_kind("rejection")
        assert rejections, "a tiny seed population must cause rejections"
        for event in rejections:
            expected = 600.0 * 2.0 ** (event["rejections"] - 1)
            assert event["backoff_seconds"] == expected

    def test_ndac_never_elevates_or_reminds(self):
        trace = TraceRecorder()
        system = StreamingSystem(small_config(protocol="ndac"), trace=trace)
        metrics = system.run()
        assert trace.count("idle_elevation") == 0
        assert sum(metrics.reminders_left.values()) == 0

    def test_dac_leaves_reminders_under_contention(self):
        system = StreamingSystem(small_config())
        metrics = system.run()
        assert sum(metrics.reminders_left.values()) > 0

    def test_down_probability_slows_admission(self):
        healthy = StreamingSystem(small_config()).run()
        flaky = StreamingSystem(small_config(down_probability=0.5)).run()
        assert sum(flaky.rejections.values()) > sum(healthy.rejections.values())

    def test_no_elevation_policy_arms_no_timers(self):
        trace = TraceRecorder()
        system = StreamingSystem(
            small_config(protocol="dac-no-elevation"), trace=trace
        )
        system.run()
        assert trace.count("idle_elevation") == 0

    def test_idle_elevation_happens_for_dac(self):
        trace = TraceRecorder()
        system = StreamingSystem(small_config(), trace=trace)
        system.run()
        assert trace.count("idle_elevation") > 0


class TestDifferentiation:
    def test_higher_class_admitted_with_fewer_rejections(self):
        config = small_config(
            requesting_peers={1: 40, 2: 40, 3: 160, 4: 160},
            seed_suppliers={1: 8},
        )
        metrics = StreamingSystem(config).run()
        rejections = metrics.mean_rejections_before_admission()
        assert rejections[1] < rejections[4]

    def test_favored_series_relaxes_to_bottom_class(self):
        metrics = StreamingSystem(small_config()).run()
        # By the end of the run every supplier favors everyone (paper Fig 7).
        final = metrics.favored_series[1][-1].value
        assert final == pytest.approx(4.0, abs=0.01)
