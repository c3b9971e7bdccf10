"""Statistics helpers for simulation output series.

All series are lists of :class:`~repro.simulation.probes.SeriesPoint`
(hour, value).  Helpers here never assume uniform sampling — different
classes' series can start at different hours (a class has no suppliers
until its first promotion), so alignment is by hour, not by index.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.simulation.probes import SeriesPoint

__all__ = [
    "value_at_hour",
    "align_series",
    "windowed_mean",
    "mean_confidence_interval",
    "series_max",
    "area_under_series",
]


def value_at_hour(
    series: Sequence[SeriesPoint], hour: float, default: float = math.nan
) -> float:
    """Value of the last sample at or before ``hour`` (step interpolation)."""
    best = default
    for point in series:
        if point.hour <= hour:
            best = point.value
        else:
            break
    return best


def align_series(
    named_series: dict[object, Sequence[SeriesPoint]], hours: Sequence[float]
) -> dict[object, list[float]]:
    """Sample several series at common hours (step interpolation)."""
    return {
        name: [value_at_hour(series, hour) for hour in hours]
        for name, series in named_series.items()
    }


def windowed_mean(
    series: Sequence[SeriesPoint], window_hours: float
) -> list[SeriesPoint]:
    """Non-overlapping window means of a series (Figure 7's 3-hour bins)."""
    if window_hours <= 0:
        raise ValueError(f"window must be > 0, got {window_hours}")
    bins: dict[int, list[float]] = {}
    for point in series:
        bins.setdefault(int(point.hour // window_hours), []).append(point.value)
    return [
        SeriesPoint(hour=(index + 0.5) * window_hours, value=sum(vals) / len(vals))
        for index, vals in sorted(bins.items())
    ]


def mean_confidence_interval(
    values: Sequence[float], z: float = 1.96
) -> tuple[float, float]:
    """Mean and half-width of a normal-approximation confidence interval.

    Used by multi-seed experiment replications; with a single value the
    half-width is zero.
    """
    if not values:
        raise ValueError("cannot summarize an empty sample")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, z * math.sqrt(variance / n)


def series_max(series: Sequence[SeriesPoint]) -> float:
    """Largest value in a series (``nan`` when empty)."""
    return max((point.value for point in series), default=math.nan)


def area_under_series(series: Sequence[SeriesPoint]) -> float:
    """Trapezoidal integral of a series over hours.

    A capacity curve's area is a scalar "how fast did it grow" summary used
    by ablation benches to compare protocols with a single number.
    """
    total = 0.0
    for previous, current in zip(series, series[1:]):
        width = current.hour - previous.hour
        total += width * (previous.value + current.value) / 2.0
    return total
