"""Session-lifecycle dynamics: models, mid-stream recovery, record round trips."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import get_scenario
from repro.simulation.config import SimulationConfig
from repro.simulation.lifecycle import (
    LIFECYCLE_MODELS,
    LIFECYCLE_NAMES,
    RECOVERY_MODES,
    DiurnalLifecycle,
    FlashLifecycle,
    GracefulLifecycle,
    NoLifecycle,
    OnOffLifecycle,
    SessionDurationLifecycle,
    make_lifecycle,
)
from repro.simulation.randoms import RandomStreams
from repro.simulation.runner import run_simulation
from repro.simulation.system import StreamingSystem

HOUR = 3600.0


# ----------------------------------------------------------------------
# lifecycle models
# ----------------------------------------------------------------------
class TestNoLifecycle:
    def test_never_departs(self):
        model = NoLifecycle()
        assert model.next_departure(1, 0.0) is None
        assert model.next_return(1, 0.0) is None


class TestGracefulLifecycle:
    def test_draws_follow_the_shared_stream_in_call_order(self):
        """Every draw comes off the one stream it was given, in call order
        and whichever peer asks, so the run's event order fixes them."""
        model = GracefulLifecycle(8 * HOUR, HOUR, RandomStreams(5).churn)
        reference = RandomStreams(5).churn
        assert model.next_departure(3, 100.0) == (
            100.0 + reference.expovariate(1.0 / (8 * HOUR))
        )
        assert model.next_return(9, 50.0) == 50.0 + reference.expovariate(1.0 / HOUR)
        assert model.next_departure(3, 0.0) == reference.expovariate(
            1.0 / (8 * HOUR)
        )


class TestOnOffLifecycle:
    def test_departure_reads_the_churn_timeline(self):
        """The model departs exactly where its on/off timeline flips."""
        model = OnOffLifecycle(1000.0, 500.0, seed=7)
        timeline = OnOffLifecycle(1000.0, 500.0, seed=7)
        for peer in range(20):
            down, boundary = timeline.next_transition(peer, 0.0)
            departure = model.next_departure(peer, 0.0)
            if down:
                assert departure == 0.0  # down at activation: leave now
            else:
                assert departure == boundary

    def test_down_at_activation_departs_immediately(self):
        model = OnOffLifecycle(100.0, 1000.0, seed=3)
        timeline = OnOffLifecycle(100.0, 1000.0, seed=3)
        down_peers = [p for p in range(200) if timeline.next_transition(p, 0.0)[0]]
        assert down_peers, "seed 3 should start some peers down"
        peer = down_peers[0]
        assert model.next_departure(peer, 0.0) == 0.0
        # ... and returns at the end of the down interval
        assert model.next_return(peer, 0.0) > 0.0

    def test_deterministic_per_peer(self):
        a = OnOffLifecycle(800.0, 200.0, seed=11)
        b = OnOffLifecycle(800.0, 200.0, seed=11)
        # interleave queries differently; per-peer timelines must agree
        times_a = [a.next_departure(p, 0.0) for p in range(10)]
        times_b = [b.next_departure(p, 0.0) for p in reversed(range(10))]
        assert times_a == list(reversed(times_b))


def is_down(model: OnOffLifecycle, peer: int, now: float) -> bool:
    """Whether the peer's on/off timeline has it down at ``now``."""
    return model.next_transition(peer, now)[0]


class TestOnOffTimeline:
    """The lazily extended per-peer timeline behind :class:`OnOffLifecycle`."""

    def test_state_is_time_consistent(self):
        model = OnOffLifecycle(mean_up_seconds=100.0, mean_down_seconds=50.0, seed=1)
        # Same (peer, time) query always answers the same.
        assert model.next_transition(7, 123.0) == model.next_transition(7, 123.0)

    def test_state_is_correlated_in_time(self):
        model = OnOffLifecycle(
            mean_up_seconds=1000.0, mean_down_seconds=1000.0, seed=2
        )
        flips = 0
        for peer in range(50):
            previous = is_down(model, peer, 0.0)
            for t in (1.0, 2.0, 3.0):
                current = is_down(model, peer, t)
                flips += current != previous
                previous = current
        # With 1000 s mean durations, 1 s steps almost never flip.
        assert flips <= 3

    def test_long_run_availability_near_stationary(self):
        model = OnOffLifecycle(mean_up_seconds=300.0, mean_down_seconds=100.0, seed=5)
        downs = 0
        samples = 0
        for peer in range(200):
            for t in range(0, 5000, 250):
                downs += is_down(model, peer, float(t))
                samples += 1
        # stationary down fraction = 100 / 400 = 0.25
        assert downs / samples == pytest.approx(0.25, abs=0.06)

    def test_down_at_time_zero(self):
        """Peers drawn down by the stationary coin are down from t=0."""
        model = OnOffLifecycle(mean_up_seconds=100.0, mean_down_seconds=300.0, seed=8)
        down_at_zero = [p for p in range(100) if is_down(model, p, 0.0)]
        # stationary down fraction is 300/400 = 0.75; some peer starts down
        assert down_at_zero
        peer = down_at_zero[0]
        down, boundary = model.next_transition(peer, 0.0)
        assert down
        assert boundary > 0.0
        # ... and the peer is still down just before that first boundary
        assert is_down(model, peer, boundary - 1e-9)

    def test_lazy_extension_across_a_very_long_horizon(self):
        """A far-future query extends one peer's timeline, and only its own."""
        model = OnOffLifecycle(mean_up_seconds=50.0, mean_down_seconds=50.0, seed=8)
        far = 1e7  # ~100k mean intervals past t=0
        down, boundary = model.next_transition(3, far)
        assert isinstance(down, bool)
        assert boundary > far
        boundaries = model._timelines[3][1]
        # the timeline now covers the query point with finite, ordered steps
        assert boundaries[-1] > far
        assert all(a < b for a, b in zip(boundaries, boundaries[1:]))
        # only the queried peer paid for the extension
        assert set(model._timelines) == {3}
        # a later nearby query reuses the extended timeline verbatim
        length_before = len(boundaries)
        model.next_transition(3, far - 1000.0)
        assert len(model._timelines[3][1]) == length_before

    def test_queries_are_monotone_safe_in_any_order(self):
        """Asking about the past after the future answers consistently."""
        forward = OnOffLifecycle(50.0, 50.0, seed=12)
        backward = OnOffLifecycle(50.0, 50.0, seed=12)
        times = [0.0, 123.0, 5000.0, 40.0, 99999.0, 1.0]
        answers_forward = [forward.next_transition(5, t) for t in times]
        answers_backward = [backward.next_transition(5, t) for t in reversed(times)]
        assert answers_forward == list(reversed(answers_backward))


class TestSessionDurationLifecycle:
    def test_sigma_zero_gives_fixed_durations(self):
        model = SessionDurationLifecycle(600.0, 60.0, sigma=0.0, seed=1)
        assert model.next_departure(4, 100.0) == pytest.approx(700.0)
        assert model.next_departure(4, 1000.0) == pytest.approx(1600.0)

    def test_draws_are_sequential_and_private_per_peer(self):
        a = SessionDurationLifecycle(600.0, 60.0, sigma=1.0, seed=5)
        b = SessionDurationLifecycle(600.0, 60.0, sigma=1.0, seed=5)
        # peer 1's second draw is unaffected by interleaved peer-2 traffic
        a.next_departure(1, 0.0)
        first = a.next_departure(1, 0.0)
        b.next_departure(1, 0.0)
        for _ in range(5):
            b.next_departure(2, 0.0)
        assert b.next_departure(1, 0.0) == first

    def test_heavy_tail_spread(self):
        model = SessionDurationLifecycle(600.0, 60.0, sigma=1.5, seed=9)
        durations = [model.next_departure(p, 0.0) for p in range(500)]
        assert min(durations) < 600.0 < max(durations)
        assert max(durations) > 10 * 600.0  # the tail is heavy


class TestDiurnalLifecycle:
    def test_night_draws_are_shorter(self):
        model = DiurnalLifecycle(10 * HOUR, HOUR, night_factor=0.1, seed=2)
        night = [model.next_departure(p, 0.0) - 0.0 for p in range(300)]
        day = [
            model.next_departure(p, 12 * HOUR) - 12 * HOUR
            for p in range(300, 600)
        ]
        assert sum(night) / len(night) < 0.3 * (sum(day) / len(day))

    def test_return_is_time_of_day_independent(self):
        model = DiurnalLifecycle(10 * HOUR, HOUR, night_factor=0.1, seed=2)
        assert model.next_return(7, 0.0) > 0.0


class TestFlashLifecycle:
    def test_selected_fraction_is_approximate(self):
        model = FlashLifecycle(100.0, 0.3, 60.0, seed=4)
        selected = sum(
            model.next_departure(p, 0.0) is not None for p in range(5000)
        )
        assert selected / 5000 == pytest.approx(0.3, abs=0.03)

    def test_departures_are_simultaneous_then_never(self):
        model = FlashLifecycle(100.0, 1.0, 60.0, seed=4)
        assert model.next_departure(1, 0.0) == 100.0
        # after the flash (e.g. a peer promoted later) nobody departs
        assert model.next_departure(1, 100.0) is None
        assert model.next_departure(1, 500.0) is None

    def test_zero_fraction_selects_nobody(self):
        model = FlashLifecycle(100.0, 0.0, 60.0, seed=4)
        assert all(model.next_departure(p, 0.0) is None for p in range(100))


class TestMakeLifecycle:
    @pytest.mark.parametrize(
        "name, model_type",
        [
            ("none", NoLifecycle),
            ("graceful", GracefulLifecycle),
            ("onoff", OnOffLifecycle),
            ("sessions", SessionDurationLifecycle),
            ("diurnal", DiurnalLifecycle),
            ("flash", FlashLifecycle),
        ],
    )
    def test_every_name_builds(self, name, model_type):
        config = SimulationConfig(lifecycle=name)
        streams = RandomStreams(config.master_seed)
        assert isinstance(make_lifecycle(config, streams), model_type)
        assert name in LIFECYCLE_NAMES
        assert LIFECYCLE_MODELS[name] is model_type

    def test_only_none_and_graceful_leave_sessions_alone(self):
        interrupting = {
            name for name, model in LIFECYCLE_MODELS.items()
            if model.interrupts_sessions
        }
        assert interrupting == set(LIFECYCLE_NAMES) - {"none", "graceful"}


# ----------------------------------------------------------------------
# configuration validation
# ----------------------------------------------------------------------
class TestLifecycleConfig:
    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(lifecycle="meteor")

    def test_unknown_recovery_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(lifecycle="flash", lifecycle_recovery="pray")

    def test_recovery_modes_are_closed(self):
        assert set(RECOVERY_MODES) == {"resume", "restart", "abandon"}

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lifecycle_mean_up_seconds", 0.0),
            ("lifecycle_mean_down_seconds", -1.0),
            ("lifecycle_sigma", -0.1),
            ("lifecycle_night_factor", 0.0),
            ("lifecycle_night_factor", 1.5),
            ("lifecycle_flash_at_seconds", -1.0),
            ("lifecycle_flash_fraction", 1.5),
        ],
    )
    def test_bad_parameters_rejected(self, field, value):
        for lifecycle in ("flash", "graceful"):
            with pytest.raises(ConfigurationError):
                SimulationConfig(lifecycle=lifecycle, **{field: value})

    def test_parameters_unchecked_when_disabled(self):
        # with lifecycle off the knobs are inert and may hold any value
        config = SimulationConfig(lifecycle_night_factor=99.0)
        assert config.lifecycle == "none"


# ----------------------------------------------------------------------
# integration: interruption, recovery, continuity probes
# ----------------------------------------------------------------------
def flash_config(**overrides):
    return get_scenario("flash_departure").build_config(scale=0.02, **overrides)


class TestMidStreamRecovery:
    def test_flash_interrupts_and_recovers(self):
        result = run_simulation(flash_config())
        metrics = result.metrics
        assert sum(metrics.supplier_departures.values()) > 0
        assert sum(metrics.supplier_rejoins.values()) > 0
        assert sum(metrics.interruptions.values()) > 0
        assert sum(metrics.recovered_sessions.values()) > 0
        assert sum(metrics.sessions_lost.values()) == 0
        # recovered stalls cost continuity somewhere
        continuity = [
            v for v in metrics.playback_continuity_index().values() if v == v
        ]
        assert continuity and min(continuity) < 1.0 <= max(continuity) + 1e-9
        latency = [
            v for v in metrics.mean_recovery_latency_seconds().values() if v == v
        ]
        assert latency and all(v > 0 for v in latency)

    def test_continuity_probe_rides_the_default_subscription(self):
        system = StreamingSystem(flash_config())
        assert "continuity" in system.metrics.probes
        payload = system.metrics.to_dict()
        for key in ("interruptions", "recovered_sessions", "sessions_lost",
                    "stall_seconds_sum", "playback_continuity_index",
                    "continuity_series"):
            assert key in payload

    def test_disabled_lifecycle_keeps_the_historical_export_schema(self):
        system = StreamingSystem(flash_config(lifecycle="none"))
        assert "continuity" not in system.metrics.probes
        assert "interruptions" not in system.metrics.to_dict()

    def test_abandon_loses_sessions_and_promotions(self):
        resume = run_simulation(flash_config()).metrics
        abandon = run_simulation(
            flash_config(lifecycle_recovery="abandon")
        ).metrics
        assert sum(abandon.sessions_lost.values()) > 0
        assert sum(abandon.recovered_sessions.values()) == 0
        # a lost requester never becomes a supplier, so capacity suffers
        assert abandon.final_capacity() <= resume.final_capacity()

    def test_restart_redoes_the_whole_transfer(self):
        restart = run_simulation(
            flash_config(lifecycle_recovery="restart")
        ).metrics
        assert sum(restart.recovered_sessions.values()) > 0
        assert sum(restart.sessions_lost.values()) == 0

    def test_ledger_matches_population_after_churning(self):
        system = StreamingSystem(flash_config())
        system.run()
        active = sum(1 for p in system.peers if p.is_active_supplier)
        assert system.ledger.num_suppliers == active

    def test_onoff_lifecycle_full_run(self):
        config = SimulationConfig(lifecycle="onoff").scaled(0.02)
        result = run_simulation(config)
        metrics = result.metrics
        assert sum(metrics.supplier_departures.values()) > 0
        # on/off churn interrupts continuously, not just once
        assert sum(metrics.interruptions.values()) > 0


class TestRecordDuckCompatibility:
    """Study records expose the continuity payload like live metrics do."""

    def record_for(self, config):
        from repro.orchestration.runspec import RunSpec
        from repro.orchestration.study import RunRecord

        return RunRecord.from_result(
            RunSpec(config=config), run_simulation(config)
        )

    def test_lifecycle_record_round_trips_continuity(self):
        from repro.orchestration.study import RunRecord

        record = self.record_for(flash_config())
        live = record.result.metrics
        # serialize → deserialize, as a ResultStore would
        loaded = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert loaded.metrics.interruptions == live.interruptions
        assert loaded.metrics.recovered_sessions == live.recovered_sessions
        assert loaded.metrics.sessions_lost == live.sessions_lost
        index = loaded.metrics.playback_continuity_index()
        for c, value in live.playback_continuity_index().items():
            assert index[c] == value or (index[c] != index[c] and value != value)
        assert loaded.metrics.continuity_series == live.continuity_series

    def test_lifecycle_free_record_reads_like_an_unsubscribed_pipeline(self):
        record = self.record_for(flash_config(lifecycle="none"))
        metrics = record.metrics
        assert set(metrics.interruptions.values()) == {0}
        assert metrics.continuity_series == []
        index = metrics.playback_continuity_index()
        assert all(value != value for value in index.values())  # all NaN
