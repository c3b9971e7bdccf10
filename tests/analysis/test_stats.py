"""Unit tests for series statistics helpers."""

import math

import pytest

from repro.analysis.stats import (
    align_series,
    area_under_series,
    mean_confidence_interval,
    series_max,
    value_at_hour,
    windowed_mean,
)
from repro.simulation.probes import SeriesPoint


def series(*pairs):
    return [SeriesPoint(hour=h, value=v) for h, v in pairs]


class TestValueAtHour:
    def test_step_interpolation(self):
        s = series((0, 10.0), (5, 20.0), (10, 30.0))
        assert value_at_hour(s, 0) == 10.0
        assert value_at_hour(s, 4.9) == 10.0
        assert value_at_hour(s, 5) == 20.0
        assert value_at_hour(s, 99) == 30.0

    def test_before_first_sample_is_default(self):
        s = series((5, 20.0))
        assert math.isnan(value_at_hour(s, 1))
        assert value_at_hour(s, 1, default=0.0) == 0.0


class TestAlignSeries:
    def test_alignment_by_hour(self):
        named = {
            "a": series((0, 1.0), (10, 2.0)),
            "b": series((5, 7.0)),
        }
        aligned = align_series(named, [0, 5, 10])
        assert aligned["a"] == [1.0, 1.0, 2.0]
        assert math.isnan(aligned["b"][0])
        assert aligned["b"][1:] == [7.0, 7.0]


class TestWindowedMean:
    def test_three_hour_windows(self):
        s = series((0, 1.0), (1, 2.0), (2, 3.0), (3, 10.0), (4, 20.0))
        result = windowed_mean(s, 3.0)
        assert [(p.hour, p.value) for p in result] == [(1.5, 2.0), (4.5, 15.0)]

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            windowed_mean(series((0, 1.0)), 0.0)


class TestConfidenceInterval:
    def test_single_value_zero_halfwidth(self):
        assert mean_confidence_interval([5.0]) == (5.0, 0.0)

    def test_mean_and_positive_halfwidth(self):
        mean, half = mean_confidence_interval([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert half > 0.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])


class TestScalarSummaries:
    def test_series_max(self):
        assert series_max(series((0, 1.0), (1, 9.0), (2, 3.0))) == 9.0
        assert math.isnan(series_max([]))

    def test_area_under_series_trapezoid(self):
        s = series((0, 0.0), (2, 2.0), (4, 2.0))
        # triangle (0..2): 2, rectangle (2..4): 4
        assert area_under_series(s) == 6.0

    def test_area_of_single_point_is_zero(self):
        assert area_under_series(series((1, 5.0))) == 0.0
