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

This module is the only one that knows a pattern's shape.  Each pattern
states, from the same constants, its cumulative curve (``cumulative``),
its closed-form inverse (``inverse``, which only seeds the search) and,
for patterns 1, 3 and 4, the cumulative curve on numpy arrays
(``curve``).  :meth:`ArrivalPattern.deterministic_times` equals
:meth:`ArrivalPattern.quantile` at every arrival to the last bit: by a
scalar bisection that evaluates the curve only near the inverse's
estimate (:func:`_seeded_quantiles`), or, on patterns 1, 3 and 4 from
:data:`LOCKSTEP_MIN_ARRIVALS` arrivals on, by all bisections at once in
numpy (:func:`_lockstep_quantiles`, over curves that use only float
operations numpy and CPython round alike).  Only the lockstep imports
numpy (about 0.1 s and 11 MiB in a fresh process), so a run on pattern 2,
or on fewer arrivals, never loads it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError

__all__ = [
    "ArrivalPattern",
    "LOCKSTEP_MIN_ARRIVALS",
    "make_pattern",
    "generate_arrival_times",
]

#: From this many arrivals on, patterns 1, 3 and 4 place them by the numpy
#: lockstep: near here the scalar sweeps of the three patterns together
#: take as long as numpy's import plus their lockstep sweeps.
LOCKSTEP_MIN_ARRIVALS = 12_000

#: The curve margin of :func:`_seeded_quantiles`: at least twice the
#: largest distance between any pattern's float ``cumulative`` and some
#: non-decreasing curve (the bound of each pattern is derived there).
_DELTA = 2.0**-48


@dataclass(frozen=True)
class ArrivalPattern:
    """A normalized arrival-rate shape over ``[0, window_seconds)``.

    ``density(t)`` integrates to 1 over the window; ``cumulative(t)`` is its
    integral (0 at the window start, 1 at its end), and ``inverse`` its
    closed-form inverse, which only seeds the search of
    :meth:`deterministic_times`.  All three are piecewise closed forms per
    pattern; ``curve(np, t)``, where present, is ``cumulative`` on numpy
    arrays, with the same operations in the same order.
    """

    pattern_id: int
    window_seconds: float
    density: Callable[[float], float]
    cumulative: Callable[[float], float]
    peak_density: float
    inverse: Callable[[float], float]
    curve: Callable[[Any, Any], Any] | None = None

    def rate_per_second(self, t: float, total_arrivals: int) -> float:
        """Instantaneous arrival rate at ``t`` for ``total_arrivals`` peers."""
        return total_arrivals * self.density(t)

    def quantile(self, fraction: float) -> float:
        """Inverse of :meth:`cumulative` by bisection (densities are >= 0).

        The reference: :meth:`deterministic_times` equals it to the last
        bit and falls back to it; stochastic generation pads with it.
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

    def deterministic_times(self, n: int) -> list[float]:
        """All ``n`` arrivals: arrival ``i`` at ``quantile((i + 0.5) / n)``,
        bit for bit.

        A pattern with a numpy ``curve`` bisects in lockstep from
        :data:`LOCKSTEP_MIN_ARRIVALS` arrivals on; otherwise each arrival
        is bisected in scalar Python, seeded by ``inverse``.
        """
        if self.curve is not None and n >= LOCKSTEP_MIN_ARRIVALS:
            return _lockstep_quantiles(self.curve, self.window_seconds, n)
        return _seeded_quantiles(self, n)


def _dyadic_steps(window: float) -> int:
    """How many bisection steps from ``[0, window]`` stay exactly dyadic.

    Step ``k``'s midpoints are odd multiples of ``window / 2**k``.  While
    ``k`` plus the bit length of the window's odd significand is at most
    53, each is an exact float and ``(lo + hi) / 2.0`` computes it
    exactly, so the bracket after ``k`` steps is a cell
    ``[j, j + 1] * window / 2**k`` for a whole ``j``.  Windows near either
    end of the float range, where ``lo + hi`` could overflow or a cell be
    subnormal, jump no step.
    """
    if not 2.0**-970 <= window <= 2.0**1022:
        return 0
    numerator = window.as_integer_ratio()[0]
    odd = numerator // (numerator & -numerator)
    return 53 - odd.bit_length()


def _seeded_quantiles(pattern: ArrivalPattern, n: int) -> list[float]:
    """``quantile((i + 0.5) / n)`` for every ``i``, evaluating the curve
    only near each answer.

    Each arrival, with ``f = (i + 0.5) / n``, runs the reference
    bisection's own midpoints, ``mid = (lo + hi) / 2.0`` from ``[0, W]``:

    1. ``pattern.inverse(f)`` estimates the answer ``x``, and the band
       around it is ``x ± g``, with ``g = 4δ / density(x)`` and at least
       ``W·2**-50``.
    2. A midpoint below the band moves ``lo``, and one above it moves
       ``hi``, without evaluating the curve; a midpoint inside the band is
       decided by the curve, as in the reference.  When no midpoint of
       the first ``K`` steps (:func:`_dyadic_steps`) lies inside the band,
       those steps are jumped at once: the bracket after them is the exact
       cell ``[j, j + 1] * W / 2**K`` around the band.  The loop stops
       once a midpoint equals ``lo`` or ``hi``.
    3. The skipped decisions, the jumped cell's ends among them, are
       confirmed where they are closest to the answer: the last midpoint
       skipped to ``lo``, ``l``, needs ``cumulative(l) < f - δ`` (checked
       when ``l > 0``), and the last skipped to ``hi``, ``h``, needs
       ``cumulative(h) >= f + δ`` (checked when ``h < W``).  Otherwise
       the arrival is placed by :meth:`~ArrivalPattern.quantile` itself.

    Why no bit changes.  Let ``d`` be the largest distance on ``[0, W]``
    between a pattern's float ``cumulative`` and some non-decreasing
    curve ``M``; with ``u = 2**-53`` it is

    * pattern 1: 0.  One correctly rounded division, clamped: the float
      curve itself never decreases;
    * pattern 2: at most ``3u``.  Each half is a correctly rounded
      division, libm's ``pow`` (within one ulp) and an exact halving,
      plus ``1 - x`` on the right half; the halves meet at 0.5;
    * pattern 3: at most ``2u``.  Each piece is a chain of correctly
      rounded operations and never decreases; the curve steps down by
      about ``u`` at the burst's end and ``3u`` at ``W``;
    * pattern 4: at most ``6u``.  Eight roundings of terms whose sum is
      at most 1 (``divmod``'s parts are exact), and steps under ``2u``
      from one period to the next and at ``W``.

    ``δ = 2**-48 = 32u`` exceeds ``2d`` on every pattern by more than the
    rounding of ``f ± δ``.  Every midpoint skipped to ``lo`` lies at or
    below ``l``, so
    ``cumulative(m) <= M(m) + d <= M(l) + d <= cumulative(l) + 2d < f``;
    likewise ``cumulative(m) >= f`` for every one skipped to ``hi``.  Each
    skipped comparison thus comes out as the reference's would, and the
    loop takes the reference's path.  ``cumulative(lo) < f <=
    cumulative(hi)`` then holds at every step (``cumulative(0) = 0 < f``
    and ``cumulative(W) = 1 > f``), so once a midpoint equals ``lo`` or
    ``hi``, every later step recomputes it and moves nothing.  The
    estimate, the band and the jump change only speed: a wrong estimate
    costs the reference's 60 evaluations, never a bit.
    """
    cumulative = pattern.cumulative
    density = pattern.density
    inverse = pattern.inverse
    window = pattern.window_seconds
    jump = _dyadic_steps(window)
    cell = math.ldexp(window, -jump)
    cells = 1 << jump
    narrowest = math.ldexp(window, -50)
    times = [0.0] * n
    for i in range(n):
        fraction = (i + 0.5) / n
        estimate = inverse(fraction)
        slope = density(estimate)
        guard = 4.0 * _DELTA / slope if slope > 0.0 else window
        if guard < narrowest:
            guard = narrowest
        below = estimate - guard
        above = estimate + guard
        # jump the first ``jump`` steps if none of their midpoints (the
        # multiples of ``cell`` inside the window) lies in the band
        j = int(below / cell) if below > 0.0 else 0
        lo = j * cell
        hi = lo + cell
        if j < cells and (j == 0 or lo < below) and (hi == window or hi > above):
            start = jump
        else:
            lo, hi, start = 0.0, window, 0
        skipped_lo, skipped_hi = lo, hi
        for _ in range(start, 60):
            mid = (lo + hi) / 2.0
            if mid == lo or mid == hi:
                break
            if mid < below:
                lo = skipped_lo = mid
            elif mid > above:
                hi = skipped_hi = mid
            elif cumulative(mid) < fraction:
                lo = mid
            else:
                hi = mid
        if (skipped_lo > 0.0 and cumulative(skipped_lo) >= fraction - _DELTA) or (
            skipped_hi < window and cumulative(skipped_hi) < fraction + _DELTA
        ):
            times[i] = pattern.quantile(fraction)
        else:
            times[i] = (lo + hi) / 2.0
    return times


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
        inverse=lambda fraction: fraction * window,
        curve=curve,
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

    def inverse(fraction: float) -> float:
        if fraction <= 0.5:
            return half * math.sqrt(2.0 * fraction)
        return window - half * math.sqrt(2.0 * (1.0 - fraction))

    # no numpy curve, so a pattern-2 run never loads numpy; one would need
    # ``np.float_power`` to round ``x**2`` as CPython's libm ``pow`` does
    return ArrivalPattern(2, window, density, cumulative, peak, inverse)


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

    def inverse(fraction: float) -> float:
        if fraction < burst_fraction:
            return fraction / burst_rate
        return burst_end + (fraction - burst_fraction) / tail_rate

    def curve(np, t):
        inside = np.where(
            t < burst_end, burst_rate * t, burst_fraction + tail_rate * (t - burst_end)
        )
        return np.where(t <= 0.0, 0.0, np.where(t >= window, 1.0, inside))

    return ArrivalPattern(
        3, window, density, cumulative, burst_rate, inverse, curve
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
    period_mass = burst_mass_per + floor_rate * spacing
    burst_peak = floor_rate + burst_rate
    burst_top = burst_peak * burst_len  # a period's mass up to its burst's end

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

    def inverse(fraction: float) -> float:
        full = min(fraction // period_mass, num_bursts - 1.0)
        rest = fraction - full * period_mass
        if rest < burst_top:
            return full * spacing + rest / burst_peak
        return full * spacing + burst_len + (rest - burst_top) / floor_rate

    def curve(np, t):
        # the same op order as ``cumulative``, so every intermediate
        # rounds alike
        full, offset = np.divmod(t, spacing)
        mass = full * burst_mass_per + floor_rate * (full * spacing)
        mass = mass + floor_rate * offset
        mass = mass + burst_rate * np.minimum(offset, burst_len)
        return np.where(t <= 0.0, 0.0, np.where(t >= window, 1.0, mass))

    return ArrivalPattern(
        4, window, density, cumulative, burst_peak, inverse, curve
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
