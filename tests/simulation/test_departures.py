"""Behavioral tests for graceful supplier churn (``lifecycle="graceful"``).

The metric- and trace-level cases check finished runs; the cases that
drive one supplier's departure cycle by hand call the engine's lifecycle
handlers directly and read the rest off the run's trace.
"""

import pytest

from repro.errors import ConfigurationError
from repro.simulation.arrayengine import ArrayEngine
from repro.simulation.config import SimulationConfig
from repro.simulation.lifecycle import DEPARTURE_RETRY_SECONDS
from repro.simulation.trace import TraceRecorder
from repro.simulation.validation import audit_system

HOUR = 3600.0


def churn_config(**overrides):
    defaults = dict(
        seed_suppliers={1: 6},
        requesting_peers={1: 10, 2: 10, 3: 40, 4: 40},
        arrival_pattern=1,
        master_seed=21,
        lifecycle="graceful",
        lifecycle_mean_up_seconds=12 * HOUR,
        lifecycle_mean_down_seconds=4 * HOUR,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def finished_run(config):
    """``(engine, metrics, trace)`` of a traced run."""
    trace = TraceRecorder()
    engine = ArrayEngine(config, trace=trace)
    return engine, engine.run(), trace


def active_supplier_classes(engine):
    """Class of every supplier in the population at the end of the run."""
    peers = engine.peers
    return [
        peers.peer_class[pid]
        for pid in range(len(peers))
        if peers.level[pid] != 0 and not peers.departed[pid]
    ]


def seed_events(trace, kind, seed):
    """Times of the trace events of ``kind`` about peer ``seed``."""
    return [event["t"] for event in trace.of_kind(kind) if event["peer"] == seed]


class TestConfig:
    def test_churn_off_by_default(self):
        assert SimulationConfig().lifecycle == "none"

    def test_invalid_durations_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(lifecycle="graceful", lifecycle_mean_up_seconds=0.0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(lifecycle="graceful", lifecycle_mean_down_seconds=-1.0)


class TestDepartureDynamics:
    @pytest.fixture(scope="class")
    def run(self):
        return finished_run(churn_config())

    def test_departures_happen_and_are_counted(self, run):
        _engine, metrics, trace = run
        departures = sum(metrics.supplier_departures.values())
        assert departures > 0
        assert departures == trace.count("supplier_departed")

    def test_rejoins_happen(self, run):
        _engine, metrics, trace = run
        rejoins = sum(metrics.supplier_rejoins.values())
        assert rejoins > 0
        assert rejoins == trace.count("supplier_rejoined")

    def test_ledger_matches_active_suppliers(self, run):
        engine, _metrics, _trace = run
        active = active_supplier_classes(engine)
        assert engine.ledger.num_suppliers == len(active)
        expected_units = sum(engine.ladder.offer_units(c) for c in active)
        assert engine.ledger.total_units == expected_units

    def test_audit_still_clean_under_churn(self, run):
        engine, _metrics, trace = run
        report = audit_system(engine, trace)
        assert report.ok, report.summary()

    def test_capacity_series_can_dip(self, run):
        # With churn the capacity curve is no longer monotone.
        _engine, metrics, _trace = run
        values = [p.value for p in metrics.capacity_series]
        dips = sum(1 for a, b in zip(values, values[1:]) if b < a)
        assert dips > 0

    def test_departures_are_graceful(self, run):
        # No supplier departs mid-session: every admission's suppliers were
        # active for the whole show time (checked by the T1 audit above);
        # additionally, departed peers are never probed (they are
        # unregistered), so no admission lists a departed supplier at its
        # admission time.  Graceful runs interrupt nothing.
        engine, metrics, trace = run
        assert trace.count("session_interrupted") == 0
        assert "interruptions" not in metrics.to_dict()
        departures_by_peer: dict[int, list[float]] = {}
        for event in trace.of_kind("supplier_departed"):
            departures_by_peer.setdefault(event["peer"], []).append(event["t"])
        show = engine.media.show_seconds
        for event in trace.of_kind("admission"):
            start = event["t"]
            for supplier_id in event["suppliers"]:
                for depart_time in departures_by_peer.get(supplier_id, []):
                    # a departure cannot fall strictly inside the session
                    assert not (start < depart_time < start + show - 1e-6)


class TestChurnCycle:
    """The full depart → rejoin → depart cycle and its timer hygiene."""

    def test_depart_rejoin_depart_cycles_complete(self):
        config = churn_config(
            lifecycle_mean_up_seconds=6 * HOUR,
            lifecycle_mean_down_seconds=1 * HOUR,
        )
        engine, _metrics, trace = finished_run(config)
        assert any(d >= 2 for d in engine.peers.departures), (
            "expected at least one supplier to complete a full "
            "depart→rejoin→depart cycle at these churn rates"
        )
        # Per peer the trace must strictly alternate, starting with a
        # departure: a peer can never depart twice without rejoining.
        kinds_by_peer: dict[int, list[str]] = {}
        for event in trace.events:
            if event["kind"] in ("supplier_departed", "supplier_rejoined"):
                kinds_by_peer.setdefault(event["peer"], []).append(event["kind"])
        for kinds in kinds_by_peer.values():
            assert kinds[0] == "supplier_departed"
            for first, second in zip(kinds, kinds[1:]):
                assert first != second

    def test_busy_supplier_defers_departure_until_session_ends(self):
        # Natural departures are pushed far out; we drive the cycle by hand
        # (the first arrival comes long after the re-check).
        config = churn_config(lifecycle_mean_up_seconds=10_000 * HOUR)
        trace = TraceRecorder()
        engine = ArrayEngine(config, trace=trace)
        seed = 0
        engine._start_sessions([seed])

        engine._on_lifecycle_departure(seed)
        assert not engine.peers.departed[seed], (
            "a busy supplier must finish its session"
        )

        engine._release_supplier(seed)  # the session ends
        engine.run()
        departed = seed_events(trace, "supplier_departed", seed)
        assert departed[0] == DEPARTURE_RETRY_SECONDS

    def test_stale_idle_timer_dropped_after_generation_bump(self):
        # Registration armed a T_out timer for each idle seed; a session
        # start/end cycle bumps the generation, so the original timer must
        # be a no-op when it fires (short T_out keeps arrivals out of the
        # window).
        config = churn_config(
            lifecycle_mean_up_seconds=10_000 * HOUR, t_out_seconds=600.0
        )
        trace = TraceRecorder()
        engine = ArrayEngine(config, trace=trace)
        seed = 0

        engine.peers.idle_generation[seed] += 1  # what a session start does
        engine.run()
        assert config.t_out_seconds not in seed_events(
            trace, "idle_elevation", seed
        )
        # the other seeds' timers were live
        assert config.t_out_seconds in seed_events(trace, "idle_elevation", 1)

    def test_rejoin_arms_fresh_idle_timer(self):
        # After depart → rejoin, the supplier elevates again from its own
        # re-armed timer (the pre-departure timer was invalidated, so it
        # elevates once, not twice, at T_out).
        config = churn_config(
            lifecycle_mean_up_seconds=10_000 * HOUR, t_out_seconds=600.0
        )
        trace = TraceRecorder()
        engine = ArrayEngine(config, trace=trace)
        seed = 0
        before = engine.peers.level[seed]

        engine._on_lifecycle_departure(seed)
        assert engine.peers.departed[seed]
        engine._on_lifecycle_return(seed)
        assert not engine.peers.departed[seed]
        engine.run()
        elevations = [
            event
            for event in trace.of_kind("idle_elevation")
            if event["peer"] == seed and event["t"] == config.t_out_seconds
        ]
        assert len(elevations) == 1
        assert elevations[0]["lowest_favored"] > before


class TestNoRejoin:
    def test_without_rejoin_population_only_shrinks(self):
        config = churn_config(
            lifecycle_rejoin=False,
            lifecycle_mean_up_seconds=6 * HOUR,
        )
        _engine, metrics, _trace = finished_run(config)
        assert sum(metrics.supplier_rejoins.values()) == 0
        assert sum(metrics.supplier_departures.values()) > 0

    def test_paper_mode_has_no_departures(self):
        _engine, metrics, _trace = finished_run(churn_config(lifecycle="none"))
        assert sum(metrics.supplier_departures.values()) == 0
        values = [p.value for p in metrics.capacity_series]
        assert values == sorted(values)  # monotone without churn
