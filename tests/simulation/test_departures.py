"""Behavioral tests for graceful supplier churn (``lifecycle="graceful"``).

The metric- and trace-level cases run on both engines; the cases that
drive one supplier's departure cycle by hand use the object engine's
:class:`~repro.simulation.lifecycle.LifecycleDynamics` directly.
"""

import pytest

from repro.errors import ConfigurationError
from repro.simulation.arrayengine import ArrayEngine
from repro.simulation.config import SimulationConfig
from repro.simulation.lifecycle import LifecycleDynamics
from repro.simulation.system import StreamingSystem
from repro.simulation.trace import TraceRecorder
from repro.simulation.validation import audit_system

HOUR = 3600.0
ENGINES = (StreamingSystem, ArrayEngine)


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


def finished_runs(config):
    """``(system, metrics, trace)`` of the same run on each engine."""
    runs = []
    for engine in ENGINES:
        trace = TraceRecorder()
        system = engine(config, trace=trace)
        runs.append((system, system.run(), trace))
    return runs


def active_supplier_classes(system):
    """Class of every supplier in the population at the end of the run."""
    if isinstance(system, ArrayEngine):
        peers = system.peers
        return [
            peers.peer_class[pid]
            for pid in range(len(peers))
            if peers.level[pid] != 0 and not peers.departed[pid]
        ]
    return [p.peer_class for p in system.peers if p.is_active_supplier]


def departures_per_peer(system):
    if isinstance(system, ArrayEngine):
        return list(system.peers.departures)
    return [p.departures for p in system.peers]


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
    def runs(self):
        return finished_runs(churn_config())

    def test_departures_happen_and_are_counted(self, runs):
        for _system, metrics, trace in runs:
            departures = sum(metrics.supplier_departures.values())
            assert departures > 0
            assert departures == trace.count("supplier_departed")

    def test_rejoins_happen(self, runs):
        for _system, metrics, trace in runs:
            rejoins = sum(metrics.supplier_rejoins.values())
            assert rejoins > 0
            assert rejoins == trace.count("supplier_rejoined")

    def test_ledger_matches_active_suppliers(self, runs):
        for system, _metrics, _trace in runs:
            active = active_supplier_classes(system)
            assert system.ledger.num_suppliers == len(active)
            expected_units = sum(system.ladder.offer_units(c) for c in active)
            assert system.ledger.total_units == expected_units

    def test_audit_still_clean_under_churn(self, runs):
        for system, _metrics, trace in runs:
            report = audit_system(system, trace)
            assert report.ok, report.summary()

    def test_capacity_series_can_dip(self, runs):
        # With churn the capacity curve is no longer monotone.
        for _system, metrics, _trace in runs:
            values = [p.value for p in metrics.capacity_series]
            dips = sum(1 for a, b in zip(values, values[1:]) if b < a)
            assert dips > 0

    def test_departures_are_graceful(self, runs):
        # No supplier departs mid-session: every admission's suppliers were
        # active for the whole show time (checked by the T1 audit above);
        # additionally, departed peers are never probed (they are
        # unregistered), so no admission lists a departed supplier at its
        # admission time.  Graceful runs interrupt nothing.
        for system, metrics, trace in runs:
            assert trace.count("session_interrupted") == 0
            assert "interruptions" not in metrics.to_dict()
            departures_by_peer: dict[int, list[float]] = {}
            for event in trace.of_kind("supplier_departed"):
                departures_by_peer.setdefault(event["peer"], []).append(event["t"])
            show = system.media.show_seconds
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
        for system, _metrics, trace in finished_runs(config):
            assert any(d >= 2 for d in departures_per_peer(system)), (
                "expected at least one supplier to complete a full "
                "depart→rejoin→depart cycle at these churn rates"
            )
            # Per peer the trace must strictly alternate, starting with a
            # departure: a peer can never depart twice without rejoining.
            kinds_by_peer: dict[int, list[str]] = {}
            for event in trace.events:
                if event["kind"] in ("supplier_departed", "supplier_rejoined"):
                    kinds_by_peer.setdefault(event["peer"], []).append(
                        event["kind"]
                    )
            for kinds in kinds_by_peer.values():
                assert kinds[0] == "supplier_departed"
                for first, second in zip(kinds, kinds[1:]):
                    assert first != second

    def test_busy_supplier_defers_departure_until_session_ends(self):
        # Natural departures are pushed far out; we drive the cycle by hand.
        config = churn_config(lifecycle_mean_up_seconds=10_000 * HOUR)
        system = StreamingSystem(config)
        seed = next(p for p in system.peers if p.is_seed)
        seed.admission.on_session_start()

        system.lifecycle._on_departure(seed)
        assert not seed.departed, "a busy supplier must finish its session"

        seed.admission.on_session_end()
        system.sim.run(until=LifecycleDynamics.DEPARTURE_RETRY_SECONDS)
        assert seed.departed
        assert seed.departures == 1

    def test_stale_idle_timer_dropped_after_generation_bump(self):
        # Registration armed a T_out timer for each idle seed; a session
        # start/end cycle bumps the generation, so the original timer must
        # be a no-op when it fires (short T_out keeps arrivals out of the
        # window).
        config = churn_config(
            lifecycle_mean_up_seconds=10_000 * HOUR, t_out_seconds=600.0
        )
        system = StreamingSystem(config)
        seed = next(p for p in system.peers if p.is_seed)
        before = seed.admission.lowest_favored_class()

        seed.bump_idle_generation()  # what a session start does
        system.sim.run(until=config.t_out_seconds)
        assert seed.admission.lowest_favored_class() == before

    def test_rejoin_arms_fresh_idle_timer(self):
        # After depart → rejoin, the supplier elevates again from its own
        # re-armed timer (the pre-departure timer was invalidated).
        config = churn_config(
            lifecycle_mean_up_seconds=10_000 * HOUR, t_out_seconds=600.0
        )
        system = StreamingSystem(config)
        seed = next(p for p in system.peers if p.is_seed)
        before = seed.admission.lowest_favored_class()

        system.lifecycle._on_departure(seed)
        assert seed.departed
        system.lifecycle._on_return(seed)
        assert not seed.departed
        system.sim.run(until=system.sim.now + config.t_out_seconds)
        assert seed.admission.lowest_favored_class() > before


class TestNoRejoin:
    def test_without_rejoin_population_only_shrinks(self):
        config = churn_config(
            lifecycle_rejoin=False,
            lifecycle_mean_up_seconds=6 * HOUR,
        )
        for _system, metrics, _trace in finished_runs(config):
            assert sum(metrics.supplier_rejoins.values()) == 0
            assert sum(metrics.supplier_departures.values()) > 0

    def test_paper_mode_has_no_departures(self):
        for _system, metrics, _trace in finished_runs(churn_config(lifecycle="none")):
            assert sum(metrics.supplier_departures.values()) == 0
            values = [p.value for p in metrics.capacity_series]
            assert values == sorted(values)  # monotone without churn
