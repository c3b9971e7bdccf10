"""Unit tests for the four arrival patterns (paper Section 5.1)."""

import dataclasses
import math
import random
import struct
from array import array

import pytest

from repro.errors import ConfigurationError
from repro.simulation.arrayengine import ArrayEngine
from repro.simulation.arrivals import (
    LOCKSTEP_MIN_ARRIVALS,
    arrivals_per_bin,
    deterministic_lane,
    generate_arrival_times,
    make_pattern,
)
from repro.simulation.config import SimulationConfig

HOUR = 3600.0
WINDOW = 72 * HOUR


@pytest.fixture(params=[1, 2, 3, 4])
def pattern(request):
    return make_pattern(request.param, WINDOW)


class TestPatternShapes:
    def test_density_integrates_to_one(self, pattern):
        # Riemann sum over fine steps.
        steps = 20_000
        dt = WINDOW / steps
        total = sum(pattern.density(i * dt) for i in range(steps)) * dt
        assert total == pytest.approx(1.0, rel=1e-3)

    def test_cumulative_monotone_and_normalized(self, pattern):
        previous = -1.0
        for i in range(0, 101):
            value = pattern.cumulative(WINDOW * i / 100)
            assert value >= previous
            previous = value
        assert pattern.cumulative(0.0) == 0.0
        assert pattern.cumulative(WINDOW) == pytest.approx(1.0)

    def test_quantile_inverts_cumulative(self, pattern):
        for fraction in (0.01, 0.25, 0.5, 0.9, 0.99):
            t = pattern.quantile(fraction)
            assert pattern.cumulative(t) == pytest.approx(fraction, abs=1e-6)

    def test_density_zero_outside_window(self, pattern):
        assert pattern.density(-1.0) == 0.0
        assert pattern.density(WINDOW + 1.0) == 0.0


class TestSpecificShapes:
    def test_pattern1_constant(self):
        pattern = make_pattern(1, WINDOW)
        values = {pattern.density(t) for t in (0.0, WINDOW / 3, WINDOW * 0.9)}
        assert len(values) == 1

    def test_pattern2_peaks_mid_window(self):
        pattern = make_pattern(2, WINDOW)
        mid = pattern.density(WINDOW / 2)
        assert mid > pattern.density(WINDOW / 10)
        assert mid > pattern.density(WINDOW * 0.9)
        assert mid == pytest.approx(2.0 / WINDOW)

    def test_pattern2_symmetric(self):
        pattern = make_pattern(2, WINDOW)
        for f in (0.1, 0.3, 0.45):
            assert pattern.density(WINDOW * f) == pytest.approx(
                pattern.density(WINDOW * (1 - f))
            )

    def test_pattern3_burst_then_constant(self):
        pattern = make_pattern(3, WINDOW)
        burst = pattern.density(HOUR)          # inside [0, 6h)
        tail = pattern.density(30 * HOUR)
        assert burst > 3 * tail
        # 40% of arrivals inside the first 6 hours
        assert pattern.cumulative(6 * HOUR) == pytest.approx(0.40)

    def test_pattern4_periodic_bursts(self):
        pattern = make_pattern(4, WINDOW)
        # bursts start every 12h and last 2h
        in_burst = pattern.density(12 * HOUR + HOUR)
        between = pattern.density(12 * HOUR + 5 * HOUR)
        assert in_burst > 3 * between
        # six equal bursts carry 60%: after one full cycle, 0.6/6 + 0.4/6
        assert pattern.cumulative(12 * HOUR) == pytest.approx(1.0 / 6.0)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigurationError):
            make_pattern(5, WINDOW)
        with pytest.raises(ConfigurationError):
            make_pattern(1, -1.0)


class TestGeneration:
    def test_deterministic_count_and_window(self, pattern):
        times = generate_arrival_times(pattern, 500)
        assert len(times) == 500
        assert all(0 <= t < WINDOW for t in times)
        assert times == sorted(times)

    def test_deterministic_is_reproducible(self, pattern):
        assert generate_arrival_times(pattern, 100) == generate_arrival_times(
            pattern, 100
        )

    @pytest.mark.parametrize("pattern_id", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        # 0.7 and 123456.789 have odd significands of 52 and 53 bits, so
        # the seeded sweep jumps one step and none, where the others jump
        # 35 to 45
        "window", [3600.0, 77777.5, 259200.0, 604800.0, 0.7, 123456.789]
    )
    def test_deterministic_times_equal_the_quantiles(self, pattern_id, window):
        # exact float equality, on purpose: every golden pin rests on the
        # seeded sweep matching the reference bisection bit for bit
        pattern = make_pattern(pattern_id, window)
        for n in (1, 2, 3, 7, 250, 10_000):
            reference = [pattern.quantile((i + 0.5) / n) for i in range(n)]
            assert generate_arrival_times(pattern, n) == reference

    @pytest.mark.parametrize("pattern_id", [1, 3, 4])
    def test_lockstep_times_equal_the_quantiles(self, pattern_id):
        # from LOCKSTEP_MIN_ARRIVALS on, patterns 1, 3 and 4 bisect in
        # numpy lockstep instead; exact equality again
        pattern = make_pattern(pattern_id, WINDOW)
        n = LOCKSTEP_MIN_ARRIVALS
        reference = [pattern.quantile((i + 0.5) / n) for i in range(n)]
        assert generate_arrival_times(pattern, n) == reference

    @pytest.mark.parametrize("pattern_id", [1, 2, 3, 4])
    @pytest.mark.parametrize("window", [1e308, 2.0**-1060])
    def test_windows_at_the_ends_of_the_float_range(self, pattern_id, window):
        # where ``lo + hi`` overflows, or the window is subnormal, the
        # sweep jumps no step and still matches the reference
        pattern = make_pattern(pattern_id, window)
        n = 50
        reference = [pattern.quantile((i + 0.5) / n) for i in range(n)]
        assert generate_arrival_times(pattern, n) == reference

    @pytest.mark.parametrize("pattern_id", [1, 2, 3, 4])
    @pytest.mark.parametrize("misplaced", ["constant", "nudged", "outside"])
    def test_a_wrong_inverse_costs_no_bit(self, pattern_id, misplaced):
        # the inverse only seeds the search: the bracket check sends every
        # arrival it misleads back to the plain bisection
        pattern = make_pattern(pattern_id, WINDOW)
        exact = pattern.inverse
        wrong = {
            "constant": lambda fraction: WINDOW / 3,
            "nudged": lambda fraction: exact(fraction) * (1.0 + 2.0**-40),
            # past the window, where the density is 0
            "outside": lambda fraction: 2 * WINDOW,
        }[misplaced]
        misled = dataclasses.replace(pattern, inverse=wrong)
        n = 250
        reference = [pattern.quantile((i + 0.5) / n) for i in range(n)]
        assert misled.deterministic_times(n) == reference

    def test_deterministic_matches_shape(self):
        pattern = make_pattern(3, WINDOW)
        times = generate_arrival_times(pattern, 1000)
        in_burst = sum(1 for t in times if t < 6 * HOUR)
        assert in_burst == pytest.approx(400, abs=2)

    def test_stochastic_count_and_window(self, pattern):
        rng = random.Random(3)
        times = generate_arrival_times(pattern, 500, deterministic=False, rng=rng)
        assert len(times) == 500
        assert all(0 <= t < WINDOW for t in times)

    def test_stochastic_needs_rng(self, pattern):
        with pytest.raises(ConfigurationError):
            generate_arrival_times(pattern, 10, deterministic=False)

    def test_stochastic_roughly_matches_shape(self):
        pattern = make_pattern(2, WINDOW)
        rng = random.Random(9)
        times = generate_arrival_times(pattern, 4000, deterministic=False, rng=rng)
        first_quarter = sum(1 for t in times if t < WINDOW / 4)
        middle_half = sum(1 for t in times if WINDOW / 4 <= t < 3 * WINDOW / 4)
        # triangle: 12.5% in the first quarter, 75% in the middle half
        assert first_quarter / 4000 == pytest.approx(0.125, abs=0.05)
        assert middle_half / 4000 == pytest.approx(0.75, abs=0.05)

    def test_zero_arrivals(self, pattern):
        assert generate_arrival_times(pattern, 0) == []

    def test_deterministic_times_of_an_empty_population(self, pattern):
        # the sweep itself, past generate_arrival_times' early return
        assert pattern.deterministic_times(0) == []

    def test_negative_arrivals_rejected(self, pattern):
        with pytest.raises(ConfigurationError):
            generate_arrival_times(pattern, -1)


class TestConstantCumulative:
    def test_the_comparisons_equal_the_clamp_bit_for_bit(self):
        # pattern 1's scalar curve compares instead of calling min/max;
        # the float it returns, signed zero and NaN included, must not move
        pattern = make_pattern(1, WINDOW)
        rng = random.Random("pattern-1-cumulative")
        points = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324]
        for edge in (WINDOW, -WINDOW, 2 * WINDOW, 0.0):
            points += [edge, math.nextafter(edge, -math.inf),
                       math.nextafter(edge, math.inf)]
        points += [rng.uniform(-WINDOW, 2 * WINDOW) for _ in range(20_000)]
        points += [rng.uniform(0.0, WINDOW) for _ in range(20_000)]
        for t in points:
            clamped = min(max(t / WINDOW, 0.0), 1.0)
            assert struct.pack("<d", pattern.cumulative(t)) == struct.pack(
                "<d", clamped
            ), t


def lane_config(**overrides):
    defaults = dict(
        seed_suppliers={1: 4},
        requesting_peers={1: 30, 2: 30, 3: 40},
        num_classes=3,
        arrival_pattern=4,
        track_messages=False,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestSharedLane:
    """The engine's deterministic lane comes from one bounded memo."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        deterministic_lane.cache_clear()
        yield
        deterministic_lane.cache_clear()

    @pytest.mark.parametrize("pattern_id", [1, 2, 3, 4])
    def test_a_lane_is_the_placement_to_the_bit(self, pattern_id):
        for n in (0, 1, 250, LOCKSTEP_MIN_ARRIVALS):
            lane = deterministic_lane(pattern_id, WINDOW, n)
            placed = make_pattern(pattern_id, WINDOW).deterministic_times(n)
            assert isinstance(lane, array) and lane.typecode == "d"
            assert lane.tolist() == placed

    def test_runs_with_the_same_key_share_one_lane(self):
        first = ArrayEngine(lane_config(protocol="dac", master_seed=1))
        second = ArrayEngine(lane_config(protocol="ndac", master_seed=2))
        assert first._arrival_times is second._arrival_times
        assert first._arrival_times is deterministic_lane(4, 72 * HOUR, 100)
        other = ArrayEngine(lane_config(arrival_pattern=2))
        assert other._arrival_times is not first._arrival_times

    def test_a_run_leaves_the_lane_unchanged(self):
        engine = ArrayEngine(lane_config())
        lane = engine._arrival_times
        before = list(lane)
        engine.run()
        assert engine._arrival_index == len(lane)
        assert deterministic_lane(4, 72 * HOUR, 100) is lane
        assert list(lane) == before

    def test_poisson_lanes_stay_per_seed(self):
        lanes = [
            ArrayEngine(
                lane_config(deterministic_arrivals=False, master_seed=seed)
            )._arrival_times
            for seed in (1, 2)
        ]
        assert lanes[0] != lanes[1]
        assert deterministic_lane.cache_info().currsize == 0

    def test_the_memo_holds_at_most_two_lanes(self):
        assert deterministic_lane.cache_info().maxsize == 2
        for pattern_id in (1, 2, 3, 4, 1):
            deterministic_lane(pattern_id, WINDOW, 50)
            assert deterministic_lane.cache_info().currsize <= 2
        # a float and an int window are separate keys
        deterministic_lane(1, 7200, 50)
        deterministic_lane(1, 7200.0, 50)
        assert deterministic_lane.cache_info().misses == 7


class TestBinning:
    def test_bins_conserve_arrivals(self):
        pattern = make_pattern(4, WINDOW)
        times = generate_arrival_times(pattern, 777)
        bins = arrivals_per_bin(times, HOUR, WINDOW)
        assert sum(bins) == 777
        assert len(bins) == 72

    def test_bad_bin_width_rejected(self):
        with pytest.raises(ConfigurationError):
            arrivals_per_bin([1.0], 0.0, 10.0)
