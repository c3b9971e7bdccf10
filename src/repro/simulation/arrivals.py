"""First-request arrival patterns (paper Section 5.1).

The paper drives its evaluation with four arrival patterns of first-time
streaming requests, all contained in the first 72 hours of the run:

* **Pattern 1** — constant arrivals;
* **Pattern 2** — gradually increasing, then gradually decreasing arrivals
  (a symmetric triangle peaking mid-window);
* **Pattern 3** — a burst followed by lower, constant arrivals;
* **Pattern 4** — periodic bursts with a low constant floor between them.

The exact constants lived in the authors' technical report [13], which is
not available; the densities below are this reproduction's reconstruction
(shape and relative magnitudes from the paper's prose and figures).
Each pattern is expressed as a *normalized rate density* over the arrival
window (integrating to 1), from which we generate the ``n`` arrival times
either

* **deterministically** — arrival ``i`` at the ``(i + 0.5)/n`` quantile of
  the cumulative density (smooth, exactly reproducible), or
* **stochastically** — an inhomogeneous Poisson process via thinning with a
  seeded RNG.

Both modes produce exactly ``n`` arrivals inside the window.

This module is the only one that knows a pattern's shape.  Patterns 1, 3
and 4 state their cumulative curve twice, from the same constants: on
scalars (``cumulative``) and on numpy arrays, which
:func:`_lockstep_quantiles` bisects for all ``n`` arrivals at once.  Those
curves use only float operations that numpy and CPython round alike
(add, subtract, multiply, divide, min, max, divmod), so every time equals
:meth:`ArrivalPattern.quantile`'s to the last bit.  Pattern 2 bisects each
arrival in scalar Python instead, so that a run on it never imports
numpy, which would add about 12 MiB to its peak memory.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.errors import ConfigurationError

__all__ = [
    "ArrivalPattern",
    "make_pattern",
    "generate_arrival_times",
]


@dataclass(frozen=True)
class ArrivalPattern:
    """A normalized arrival-rate shape over ``[0, window_seconds)``.

    ``density(t)`` integrates to 1 over the window; ``cumulative(t)`` is its
    integral (0 at the window start, 1 at its end).  Both are piecewise
    closed forms per pattern.  ``deterministic_times(n)`` places all ``n``
    arrivals: arrival ``i`` at ``quantile((i + 0.5) / n)``, bit for bit.
    """

    pattern_id: int
    window_seconds: float
    density: Callable[[float], float]
    cumulative: Callable[[float], float]
    peak_density: float
    deterministic_times: Callable[[int], list[float]]

    def rate_per_second(self, t: float, total_arrivals: int) -> float:
        """Instantaneous arrival rate at ``t`` for ``total_arrivals`` peers."""
        return total_arrivals * self.density(t)

    def quantile(self, fraction: float) -> float:
        """Inverse of :meth:`cumulative` by bisection (densities are >= 0).

        The reference every pattern's ``deterministic_times`` equals;
        stochastic generation pads with it.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in [0,1], got {fraction}")
        cumulative = self.cumulative
        lo, hi = 0.0, self.window_seconds
        for _ in range(60):  # ~1e-18 relative precision; plenty for seconds
            mid = (lo + hi) / 2.0
            if cumulative(mid) < fraction:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0


def _lockstep_quantiles(
    curve: Callable[[Any, Any], Any], window: float, n: int
) -> list[float]:
    """``quantile((i + 0.5) / n)`` for every ``i``, in one numpy sweep.

    ``curve(np, t)`` is a pattern's cumulative curve on an array.  All
    ``n`` bisections of :meth:`ArrivalPattern.quantile` run in lockstep
    as numpy vectors; each of the 60 steps is a compare plus a midpoint,
    so every time equals the scalar bisection's to the last bit.  numpy
    is imported here, so a run that never calls this never loads it.
    """
    import numpy as np

    fractions = (np.arange(n, dtype=np.float64) + 0.5) / n
    lo = np.zeros(n, dtype=np.float64)
    hi = np.full(n, window, dtype=np.float64)
    for _ in range(60):
        mid = (lo + hi) / 2.0
        below = curve(np, mid) < fractions
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return ((lo + hi) / 2.0).tolist()


def _constant_pattern(window: float) -> ArrivalPattern:
    """Pattern 1: uniform density ``1/W``."""
    rate = 1.0 / window

    def curve(np, t):
        return np.minimum(np.maximum(t / window, 0.0), 1.0)

    return ArrivalPattern(
        pattern_id=1,
        window_seconds=window,
        density=lambda t: rate if 0 <= t < window else 0.0,
        cumulative=lambda t: min(max(t / window, 0.0), 1.0),
        peak_density=rate,
        deterministic_times=partial(_lockstep_quantiles, curve, window),
    )


def _triangle_pattern(window: float) -> ArrivalPattern:
    """Pattern 2: symmetric triangle peaking at ``W/2`` with height ``2/W``."""
    half = window / 2.0
    peak = 2.0 / window

    def density(t: float) -> float:
        if t < 0 or t >= window:
            return 0.0
        if t <= half:
            return peak * t / half
        return peak * (window - t) / half

    def cumulative(t: float) -> float:
        if t <= 0:
            return 0.0
        if t >= window:
            return 1.0
        if t <= half:
            return 0.5 * (t / half) ** 2
        remaining = (window - t) / half
        return 1.0 - 0.5 * remaining**2

    def deterministic_times(n: int) -> list[float]:
        # quantile() with cumulative() inlined; identical arithmetic
        times = [0.0] * n
        for i in range(n):
            fraction = (i + 0.5) / n
            lo, hi = 0.0, window
            for _ in range(60):
                mid = (lo + hi) / 2.0
                if mid <= 0:
                    c = 0.0
                elif mid >= window:
                    c = 1.0
                elif mid <= half:
                    c = 0.5 * (mid / half) ** 2
                else:
                    remaining = (window - mid) / half
                    c = 1.0 - 0.5 * remaining**2
                if c < fraction:
                    lo = mid
                else:
                    hi = mid
            times[i] = (lo + hi) / 2.0
        return times

    return ArrivalPattern(2, window, density, cumulative, peak, deterministic_times)


def _burst_then_constant_pattern(
    window: float, burst_fraction: float = 0.40, burst_share: float = 1.0 / 12.0
) -> ArrivalPattern:
    """Pattern 3: ``burst_fraction`` of arrivals inside the first
    ``burst_share`` of the window, the rest constant after it."""
    burst_end = window * burst_share
    burst_rate = burst_fraction / burst_end
    tail_rate = (1.0 - burst_fraction) / (window - burst_end)

    def density(t: float) -> float:
        if t < 0 or t >= window:
            return 0.0
        return burst_rate if t < burst_end else tail_rate

    def cumulative(t: float) -> float:
        if t <= 0:
            return 0.0
        if t >= window:
            return 1.0
        if t < burst_end:
            return burst_rate * t
        return burst_fraction + tail_rate * (t - burst_end)

    def curve(np, t):
        inside = np.where(
            t < burst_end, burst_rate * t, burst_fraction + tail_rate * (t - burst_end)
        )
        return np.where(t <= 0.0, 0.0, np.where(t >= window, 1.0, inside))

    return ArrivalPattern(
        3, window, density, cumulative, burst_rate,
        partial(_lockstep_quantiles, curve, window),
    )


def _periodic_bursts_pattern(
    window: float,
    num_bursts: int = 6,
    burst_duration_fraction: float = 1.0 / 36.0,
    burst_total_fraction: float = 0.60,
) -> ArrivalPattern:
    """Pattern 4: ``num_bursts`` evenly spaced bursts over a constant floor.

    With the 72-hour paper window the defaults give 2-hour bursts starting
    every 12 hours (t = 0, 12, …, 60 h) carrying 60 % of all arrivals, and a
    constant floor carrying the remaining 40 %.
    """
    burst_len = window * burst_duration_fraction
    spacing = window / num_bursts
    if burst_len >= spacing:
        raise ConfigurationError("bursts overlap; reduce duration or count")
    floor_rate = (1.0 - burst_total_fraction) / window
    burst_rate = burst_total_fraction / (num_bursts * burst_len)
    burst_mass_per = burst_total_fraction / num_bursts

    def density(t: float) -> float:
        if t < 0 or t >= window:
            return 0.0
        offset = t % spacing
        return floor_rate + (burst_rate if offset < burst_len else 0.0)

    def cumulative(t: float) -> float:
        if t <= 0:
            return 0.0
        if t >= window:
            return 1.0
        full, offset = divmod(t, spacing)
        mass = full * burst_mass_per + floor_rate * (full * spacing)
        mass += floor_rate * offset
        mass += burst_rate * min(offset, burst_len)
        return mass

    def curve(np, t):
        # the same op order as ``cumulative``, so every intermediate
        # rounds alike
        full, offset = np.divmod(t, spacing)
        mass = full * burst_mass_per + floor_rate * (full * spacing)
        mass = mass + floor_rate * offset
        mass = mass + burst_rate * np.minimum(offset, burst_len)
        return np.where(t <= 0.0, 0.0, np.where(t >= window, 1.0, mass))

    return ArrivalPattern(
        4, window, density, cumulative, floor_rate + burst_rate,
        partial(_lockstep_quantiles, curve, window),
    )


_FACTORIES: dict[int, Callable[[float], ArrivalPattern]] = {
    1: _constant_pattern,
    2: _triangle_pattern,
    3: _burst_then_constant_pattern,
    4: _periodic_bursts_pattern,
}


def make_pattern(pattern_id: int, window_seconds: float) -> ArrivalPattern:
    """Build arrival pattern ``pattern_id`` (1–4) over ``window_seconds``."""
    if pattern_id not in _FACTORIES:
        raise ConfigurationError(f"unknown arrival pattern {pattern_id}")
    if window_seconds <= 0:
        raise ConfigurationError(f"window must be > 0, got {window_seconds}")
    return _FACTORIES[pattern_id](window_seconds)


def generate_arrival_times(
    pattern: ArrivalPattern,
    total_arrivals: int,
    deterministic: bool = True,
    rng: random.Random | None = None,
) -> list[float]:
    """Arrival times of ``total_arrivals`` first requests under ``pattern``.

    Deterministic mode places arrival ``i`` at the ``(i + 0.5)/n`` quantile
    of the cumulative density.  Stochastic mode runs an inhomogeneous
    Poisson thinning sweep and then resamples to exactly ``n`` points (the
    paper fixes the *number* of peers, not the rate).
    """
    if total_arrivals < 0:
        raise ConfigurationError(f"total_arrivals must be >= 0, got {total_arrivals}")
    if total_arrivals == 0:
        return []
    if deterministic:
        return pattern.deterministic_times(total_arrivals)

    if rng is None:
        raise ConfigurationError("stochastic arrival generation needs an RNG")
    # Thinning against the peak density, oversampling then trimming/padding
    # to exactly ``total_arrivals`` draws.
    times: list[float] = []
    max_rate = pattern.peak_density * total_arrivals
    t = 0.0
    while t < pattern.window_seconds:
        t += rng.expovariate(max_rate)
        if t >= pattern.window_seconds:
            break
        if rng.random() * max_rate <= pattern.rate_per_second(t, total_arrivals):
            times.append(t)
    while len(times) < total_arrivals:  # pad by inverse-CDF draws
        times.append(pattern.quantile(rng.random()))
    times.sort()
    if len(times) > total_arrivals:  # trim uniformly, preserving the shape
        step = len(times) / total_arrivals
        times = [times[int(i * step)] for i in range(total_arrivals)]
    return times


def arrivals_per_bin(
    times: list[float], bin_seconds: float, horizon_seconds: float
) -> list[int]:
    """Histogram of arrival times — used by tests and ASCII plots."""
    if bin_seconds <= 0:
        raise ConfigurationError(f"bin width must be > 0, got {bin_seconds}")
    num_bins = math.ceil(horizon_seconds / bin_seconds)
    counts = [0] * num_bins
    for t in times:
        index = min(int(t / bin_seconds), num_bins - 1)
        counts[index] += 1
    return counts
