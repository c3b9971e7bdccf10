"""Session-lifecycle dynamics: models, mid-stream recovery, record round trips."""

import bisect
import gc
import json
import math
import random
import types

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.scenarios import get_scenario
from repro.simulation.arrayengine import ArrayEngine
from repro.simulation.config import SimulationConfig
from repro.simulation.lifecycle import (
    LIFECYCLE_MODELS,
    LIFECYCLE_NAMES,
    RECOVERY_MODES,
    TIMELINE_BLOCK,
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

HOUR = 3600.0
DAY = 24 * HOUR


# ----------------------------------------------------------------------
# the reference: models that draw each answer lazily, at query time
# ----------------------------------------------------------------------
class LazyOnOff:
    """``OnOffLifecycle`` extending each peer's timeline only past ``now``."""

    def __init__(self, mean_up_seconds, mean_down_seconds, seed=0):
        self._mean_up = mean_up_seconds
        self._mean_down = mean_down_seconds
        self._seed = seed
        self._timelines = {}

    def next_transition(self, peer_id, now):
        timeline = self._timelines.get(peer_id)
        if timeline is None:
            rng = random.Random(f"churn:{self._seed}:{peer_id}")
            availability = self._mean_up / (self._mean_up + self._mean_down)
            timeline = (rng, [0.0], rng.random() < availability)
            self._timelines[peer_id] = timeline
        peer_rng, boundaries, starts_up = timeline
        while boundaries[-1] <= now:
            intervals_so_far = len(boundaries) - 1
            currently_up = starts_up if intervals_so_far % 2 == 0 else not starts_up
            mean = self._mean_up if currently_up else self._mean_down
            boundaries.append(boundaries[-1] + peer_rng.expovariate(1.0 / mean))
        index = bisect.bisect_right(boundaries, now) - 1
        up_now = starts_up if index % 2 == 0 else not starts_up
        return not up_now, boundaries[index + 1]

    def next_departure(self, peer_id, now):
        down, boundary = self.next_transition(peer_id, now)
        return now if down else boundary

    def next_return(self, peer_id, now):
        down, boundary = self.next_transition(peer_id, now)
        return boundary if down else now


class LazySessions:
    """``SessionDurationLifecycle`` drawing from a per-peer RNG per query."""

    def __init__(self, median_up_seconds, mean_down_seconds, sigma=1.0, seed=0):
        self._mu = math.log(median_up_seconds)
        self._sigma = sigma
        self._mean_down = mean_down_seconds
        self._seed = seed
        self._rngs = {}

    def _rng(self, peer_id):
        rng = self._rngs.get(peer_id)
        if rng is None:
            rng = random.Random(f"lifecycle:sessions:{self._seed}:{peer_id}")
            self._rngs[peer_id] = rng
        return rng

    def next_departure(self, peer_id, now):
        return now + self._rng(peer_id).lognormvariate(self._mu, self._sigma)

    def next_return(self, peer_id, now):
        return now + self._rng(peer_id).expovariate(1.0 / self._mean_down)


class LazyDiurnal:
    """``DiurnalLifecycle`` drawing from a per-peer RNG per query."""

    DAY_SECONDS = 24 * HOUR
    NIGHT_END_SECONDS = 8 * HOUR

    def __init__(self, mean_up_seconds, mean_down_seconds, night_factor=0.25, seed=0):
        self._mean_up = mean_up_seconds
        self._mean_down = mean_down_seconds
        self._night_factor = night_factor
        self._seed = seed
        self._rngs = {}

    def _rng(self, peer_id):
        rng = self._rngs.get(peer_id)
        if rng is None:
            rng = random.Random(f"lifecycle:diurnal:{self._seed}:{peer_id}")
            self._rngs[peer_id] = rng
        return rng

    def next_departure(self, peer_id, now):
        time_of_day = now % self.DAY_SECONDS
        factor = self._night_factor if time_of_day < self.NIGHT_END_SECONDS else 1.0
        return now + self._rng(peer_id).expovariate(1.0 / (self._mean_up * factor))

    def next_return(self, peer_id, now):
        return now + self._rng(peer_id).expovariate(1.0 / self._mean_down)


def engine_walk(model, peer, activation, horizon, rejoin=True):
    """Every answer about ``peer``, asked for the way the engine asks."""
    answers = []
    now = activation
    while True:
        departure = model.next_departure(peer, now)
        answers.append(departure)
        if departure is None or departure > horizon or not rejoin:
            return answers
        now = max(departure, now)
        back = model.next_return(peer, now)
        answers.append(back)
        if back is None or back > horizon:
            return answers
        now = max(back, now)


def model_pair(kind, up, down, horizon, seed):
    """The drawn-timeline model and its lazy reference, same parameters."""
    if kind == "sessions":
        return (
            SessionDurationLifecycle(up, down, sigma=1.0, seed=seed, horizon=horizon),
            LazySessions(up, down, sigma=1.0, seed=seed),
        )
    if kind == "diurnal":
        return (
            DiurnalLifecycle(up, down, night_factor=0.25, seed=seed, horizon=horizon),
            LazyDiurnal(up, down, night_factor=0.25, seed=seed),
        )
    return (
        OnOffLifecycle(up, down, seed=seed, horizon=horizon),
        LazyOnOff(up, down, seed=seed),
    )


class TestDrawnTimelinesMatchLazyDraws:
    """Drawing a peer's timeline at activation changes no answer."""

    @pytest.mark.parametrize("kind", ["sessions", "diurnal", "onoff"])
    @pytest.mark.parametrize(
        "up, down, horizon, peers, rejoin, longest_at_least",
        [
            pytest.param(6 * HOUR, 2700.0, 144 * HOUR, 300, True, 20, id="rejoin"),
            pytest.param(6 * HOUR, 2700.0, 144 * HOUR, 300, False, 1, id="no-rejoin"),
            pytest.param(
                60.0, 30.0, 8 * HOUR, 20, True, 2 * TIMELINE_BLOCK + 1,
                id="longer-than-a-block",
            ),
        ],
    )
    def test_engine_walk_answers_equal_the_lazy_ones(
        self, kind, up, down, horizon, peers, rejoin, longest_at_least
    ):
        model, reference = model_pair(kind, up, down, horizon, seed=17)
        # activations fall in the first eighth of the run, so timelines
        # are long; each still walks to the horizon
        starts = random.Random(f"activations:{kind}")
        longest = 0
        for peer in range(peers):
            activation = starts.uniform(0.0, horizon / 8)
            answers = engine_walk(model, peer, activation, horizon, rejoin)
            assert answers == engine_walk(reference, peer, activation, horizon, rejoin)
            longest = max(longest, len(answers))
        assert longest >= longest_at_least

    @pytest.mark.parametrize("kind", ["sessions", "diurnal", "onoff"])
    @pytest.mark.parametrize("last", [2, 3], ids=["departure", "return"])
    def test_an_answer_at_the_horizon_is_followed(self, kind, last):
        """The engine schedules an event at the horizon itself and asks
        about the peer there, so its timeline reaches one answer further."""
        reference = model_pair(kind, HOUR, 600.0, 0.0, seed=17)[1]
        answers = engine_walk(reference, 0, 0.0, 50 * HOUR)
        horizon = answers[last]
        model = model_pair(kind, HOUR, 600.0, horizon, seed=17)[0]
        assert engine_walk(model, 0, 0.0, horizon) == answers[: last + 2]


@pytest.fixture(params=["sessions", "diurnal", "onoff"])
def drawn_model(request):
    """A model that answers only in the engine's query order."""
    return model_pair(request.param, 600.0, 60.0, 10 * HOUR, seed=3)[0]


class TestQueryOrder:
    """A query the engine never makes raises instead of drawing anew."""

    def test_two_departures_in_a_row_raise(self, drawn_model):
        departure = drawn_model.next_departure(1, 0.0)
        with pytest.raises(SimulationError):
            drawn_model.next_departure(1, departure)
        with pytest.raises(SimulationError):
            drawn_model.next_departure(1, 0.0)

    def test_return_before_any_departure_raises(self, drawn_model):
        with pytest.raises(SimulationError):
            drawn_model.next_return(1, 100.0)

    def test_now_must_be_the_previous_answer(self, drawn_model):
        departure = drawn_model.next_departure(1, 0.0)
        with pytest.raises(SimulationError):
            drawn_model.next_return(1, departure + 1.0)
        # the refused query moved nothing: the right one still answers
        assert drawn_model.next_return(1, departure) > departure

    def test_query_past_the_horizon_raises(self, drawn_model):
        answers = engine_walk(drawn_model, 1, 0.0, 10 * HOUR)
        assert answers[-1] > 10 * HOUR
        # the walk stopped after an answer past the horizon; ask the next
        model = drawn_model
        ask = model.next_return if len(answers) % 2 else model.next_departure
        with pytest.raises(SimulationError):
            ask(1, answers[-1])


def reachable_rngs(root) -> int:
    """How many ``random.Random`` objects ``root`` holds, however deep."""
    seen = set()
    stack = [root]
    count = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, random.Random):
            count += 1
        else:
            stack.extend(gc.get_referents(obj))
    return count


class TestNoRngOutlivesActivation:
    """On the builtin lifecycle workloads every timeline fits one block."""

    @pytest.mark.parametrize(
        "scenario", ["unstable_suppliers_100k", "diurnal_churn_week"]
    )
    def test_array_engine_run(self, scenario):
        engine = ArrayEngine(get_scenario(scenario).build_config(scale=0.02))
        engine.run()
        assert sum(engine.metrics.supplier_departures.values()) > 0
        assert reachable_rngs(engine._lifecycle_model) == 0

    def test_linear_elevation_run(self):
        engine = ArrayEngine(
            get_scenario("diurnal_churn_week").build_config(
                scale=0.02, protocol="dac-linear-elevation"
            )
        )
        engine.run()
        assert sum(engine.metrics.supplier_departures.values()) > 0
        assert reachable_rngs(engine._lifecycle_model) == 0


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
        model = OnOffLifecycle(1000.0, 500.0, seed=7, horizon=HOUR)
        timeline = LazyOnOff(1000.0, 500.0, seed=7)
        for peer in range(20):
            down, boundary = timeline.next_transition(peer, 600.0)
            departure = model.next_departure(peer, 600.0)
            if down:
                assert departure == 600.0  # down at activation: leave now
            else:
                assert departure == boundary

    def test_down_at_activation_departs_immediately(self):
        model = OnOffLifecycle(100.0, 1000.0, seed=3, horizon=HOUR)
        timeline = LazyOnOff(100.0, 1000.0, seed=3)
        activation = 1800.0
        down_peers = [
            p for p in range(200) if timeline.next_transition(p, activation)[0]
        ]
        assert down_peers, "seed 3 should have some peers down at activation"
        peer = down_peers[0]
        assert model.next_departure(peer, activation) == activation
        # ... and returns at the end of the down interval
        back = model.next_return(peer, activation)
        assert back == timeline.next_transition(peer, activation)[1] > activation

    def test_deterministic_per_peer(self):
        a = OnOffLifecycle(800.0, 200.0, seed=11, horizon=HOUR)
        b = OnOffLifecycle(800.0, 200.0, seed=11, horizon=HOUR)
        # interleave queries differently; per-peer timelines must agree
        times_a = [a.next_departure(p, 0.0) for p in range(10)]
        times_b = [b.next_departure(p, 0.0) for p in reversed(range(10))]
        assert times_a == list(reversed(times_b))


def down_at_activation(model: OnOffLifecycle, peer: int, now: float) -> bool:
    """Whether the peer, activated at ``now``, departs at once."""
    return model.next_departure(peer, now) == now


class TestOnOffTimeline:
    """The per-peer timeline behind :class:`OnOffLifecycle`."""

    def test_state_is_time_consistent(self):
        """Activations anywhere in one interval read the same flip: the
        timeline belongs to the peer, not to the query time."""
        reference = LazyOnOff(100.0, 50.0, seed=1)
        for peer in range(20):
            start_down, flip = reference.next_transition(peer, 0.0)
            answers = set()
            for now in (0.0, flip / 3, flip / 2):
                model = OnOffLifecycle(100.0, 50.0, seed=1, horizon=HOUR)
                departure = model.next_departure(peer, now)
                assert (departure == now) == start_down
                answers.add(model.next_return(peer, now) if start_down else departure)
            assert answers == {flip}

    def test_state_is_correlated_in_time(self):
        flips = 0
        for peer in range(50):
            states = [
                down_at_activation(
                    OnOffLifecycle(1000.0, 1000.0, seed=2, horizon=10.0), peer, t
                )
                for t in (0.0, 1.0, 2.0, 3.0)
            ]
            flips += sum(a != b for a, b in zip(states, states[1:]))
        # With 1000 s mean durations, 1 s steps almost never flip.
        assert flips <= 3

    def test_long_run_availability_near_stationary(self):
        horizon = 5000.0
        down_seconds = 0.0
        for peer in range(200):
            model = OnOffLifecycle(
                mean_up_seconds=300.0, mean_down_seconds=100.0, seed=5,
                horizon=horizon,
            )
            answers = engine_walk(model, peer, 0.0, horizon)
            for departure, back in zip(answers[::2], answers[1::2]):
                down_seconds += min(back, horizon) - departure
        # stationary down fraction = 100 / 400 = 0.25
        assert down_seconds / (200 * horizon) == pytest.approx(0.25, abs=0.06)

    def test_down_at_time_zero(self):
        """Peers drawn down by the stationary coin are down from t=0."""
        model = OnOffLifecycle(
            mean_up_seconds=100.0, mean_down_seconds=300.0, seed=8, horizon=HOUR
        )
        down_at_zero = [p for p in range(100) if down_at_activation(model, p, 0.0)]
        # stationary down fraction is 300/400 = 0.75; some peer starts down
        assert down_at_zero
        peer = down_at_zero[0]
        boundary = model.next_return(peer, 0.0)
        assert boundary > 0.0
        # ... and the peer is still down just before that first boundary
        later = OnOffLifecycle(100.0, 300.0, seed=8, horizon=HOUR)
        assert down_at_activation(later, peer, boundary - 1e-9)
        assert later.next_return(peer, boundary - 1e-9) == boundary

    def test_timeline_is_drawn_through_the_horizon_for_the_queried_peer_only(self):
        """A first query near the horizon walks one peer's timeline from
        time 0 and stores it from the activation past the horizon, and
        only its own; a query past that raises."""
        horizon = 1e5  # ~2,000 mean intervals past t=0
        model = OnOffLifecycle(
            mean_up_seconds=50.0, mean_down_seconds=50.0, seed=8, horizon=horizon
        )
        near = horizon - 1000.0
        answers = engine_walk(model, 3, near, horizon)
        assert answers[0] >= near
        timeline = model._timelines[3]
        # the timeline starts at the activation and covers the horizon
        # with finite, ordered steps
        assert timeline[0] == near
        assert timeline[-1] == answers[-1] > horizon
        assert all(a <= b for a, b in zip(timeline, timeline[1:]))
        # only the queried peer paid for it, and it kept no RNG
        assert set(model._timelines) == {3}
        assert not model._rngs
        ask = model.next_return if len(answers) % 2 else model.next_departure
        with pytest.raises(SimulationError):
            ask(3, answers[-1])


class TestSessionDurationLifecycle:
    def test_sigma_zero_gives_fixed_durations(self):
        model = SessionDurationLifecycle(
            600.0, 60.0, sigma=0.0, seed=1, horizon=HOUR
        )
        departure = model.next_departure(4, 100.0)
        assert departure == pytest.approx(700.0)
        back = model.next_return(4, departure)
        assert model.next_departure(4, back) == pytest.approx(back + 600.0)

    def test_draws_are_sequential_and_private_per_peer(self):
        a = SessionDurationLifecycle(600.0, 60.0, sigma=1.0, seed=5, horizon=DAY)
        b = SessionDurationLifecycle(600.0, 60.0, sigma=1.0, seed=5, horizon=DAY)
        # peer 1's second draw is unaffected by interleaved peer-2 traffic
        first = a.next_departure(1, 0.0)
        second = a.next_departure(1, a.next_return(1, first))
        assert b.next_departure(1, 0.0) == first
        other = b.next_departure(2, 0.0)
        back = b.next_return(1, first)
        b.next_return(2, other)
        assert b.next_departure(1, back) == second
        # ... and it is the next draw of peer 1's stream, not a repeat
        assert second - back != first

    def test_heavy_tail_spread(self):
        model = SessionDurationLifecycle(600.0, 60.0, sigma=1.5, seed=9, horizon=HOUR)
        durations = [model.next_departure(p, 0.0) for p in range(500)]
        assert min(durations) < 600.0 < max(durations)
        assert max(durations) > 10 * 600.0  # the tail is heavy


class TestDiurnalLifecycle:
    def test_night_draws_are_shorter(self):
        model = DiurnalLifecycle(
            10 * HOUR, HOUR, night_factor=0.1, seed=2, horizon=DAY
        )
        night = [model.next_departure(p, 0.0) - 0.0 for p in range(300)]
        day = [
            model.next_departure(p, 12 * HOUR) - 12 * HOUR
            for p in range(300, 600)
        ]
        assert sum(night) / len(night) < 0.3 * (sum(day) / len(day))

    def test_return_is_time_of_day_independent(self):
        model = DiurnalLifecycle(
            10 * HOUR, HOUR, night_factor=0.1, seed=2, horizon=10 * DAY
        )
        downtimes = {True: [], False: []}
        for peer in range(600):
            departure = model.next_departure(peer, 0.0 if peer % 2 else 12 * HOUR)
            at_night = departure % DAY < DiurnalLifecycle.NIGHT_END_SECONDS
            back = model.next_return(peer, departure)
            downtimes[at_night].append(back - departure)
        # night or day, a downtime is exponential with the same 1 h mean
        for sample in downtimes.values():
            assert len(sample) > 100
            assert sum(sample) / len(sample) == pytest.approx(HOUR, rel=0.25)


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
        engine = ArrayEngine(flash_config())
        assert "continuity" in engine.metrics.probes
        payload = engine.metrics.to_dict()
        for key in ("interruptions", "recovered_sessions", "sessions_lost",
                    "stall_seconds_sum", "playback_continuity_index",
                    "continuity_series"):
            assert key in payload

    def test_disabled_lifecycle_keeps_the_historical_export_schema(self):
        engine = ArrayEngine(flash_config(lifecycle="none"))
        assert "continuity" not in engine.metrics.probes
        assert "interruptions" not in engine.metrics.to_dict()

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
        engine = ArrayEngine(flash_config())
        engine.run()
        peers = engine.peers
        active = sum(
            1
            for pid in range(len(peers))
            if peers.level[pid] != 0 and not peers.departed[pid]
        )
        assert engine.ledger.num_suppliers == active

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
