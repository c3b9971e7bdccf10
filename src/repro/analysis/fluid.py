"""Fluid (mean-field) model of the self-growing streaming system.

The paper argues informally that the system's capacity grows because every
served requester joins the supply side.  That feedback loop has a clean
mean-field description which this module integrates numerically:

* ``C(t)`` — supply in *sessions* (the capacity of Figure 4),
* ``B(t)`` — sessions currently in progress,
* ``Q(t)`` — backlog of peers waiting to be admitted,
* ``λ(t)`` — the first-request arrival rate of the configured pattern.

Per small step ``dt``::

    Q += λ(t)·dt                        (new demand)
    a  = min(Q, max(0, C − B))          (admissions fill free supply)
    B += a;  Q −= a
    after the show time T:  B −= a;  C += a·ĝ

where ``ĝ`` is the mean offer of the requester class mix in sessions per
peer (the paper's mix: 0.15).  The model ignores probing granularity
(``M``), admission probabilities and backoff quantization — it is the
*capacity skeleton* of the protocol, useful to

* sanity-check the simulator's Figure-4 curves against an independent
  derivation (see ``bench_fluid_model``), and
* reason about scaling without running the DES.

The fluid curve is an *upper envelope*: every mechanism it ignores only
delays admissions, so the DES curve should trail it but share its shape
(S-curve saturating at the all-peers-supplying maximum).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.simulation.arrivals import make_pattern
from repro.simulation.config import SimulationConfig
from repro.simulation.probes import SeriesPoint

__all__ = ["FluidTrajectory", "fluid_capacity_model", "mean_offer_sessions"]

HOUR = 3600.0


def mean_offer_sessions(config: SimulationConfig) -> float:
    """Mean out-bound offer of the requester mix, in sessions per peer."""
    ladder = config.ladder
    total = config.total_requesting
    if total == 0:
        return 0.0
    units = sum(
        count * ladder.offer_units(peer_class)
        for peer_class, count in config.requesting_peers.items()
    )
    return units / total / ladder.full_rate_units


@dataclass(frozen=True)
class FluidTrajectory:
    """Result of integrating the fluid model."""

    capacity: list[SeriesPoint]       # C(t), sessions
    backlog: list[SeriesPoint]        # Q(t), peers waiting
    in_progress: list[SeriesPoint]    # B(t), running sessions
    admitted_total: float             # peers served by the horizon

    def final_capacity(self) -> float:
        """Capacity at the end of the horizon."""
        return self.capacity[-1].value if self.capacity else 0.0


def fluid_capacity_model(
    config: SimulationConfig, step_seconds: float = 60.0
) -> FluidTrajectory:
    """Integrate the mean-field model for ``config``'s workload.

    Parameters
    ----------
    config:
        Simulation configuration; population, pattern, show time and
        horizon are used (protocol knobs are deliberately ignored — the
        fluid model is protocol-free).
    step_seconds:
        Integration step; one minute resolves the paper's 60-minute show
        time comfortably.
    """
    if step_seconds <= 0:
        raise ConfigurationError(f"step must be > 0, got {step_seconds}")

    pattern = make_pattern(config.arrival_pattern, config.arrival_window_seconds)
    total_peers = config.total_requesting
    gain = mean_offer_sessions(config)
    show = config.show_seconds
    steps_per_show = max(1, round(show / step_seconds))

    ladder = config.ladder
    seed_units = sum(
        count * ladder.offer_units(peer_class)
        for peer_class, count in config.seed_suppliers.items()
    )
    capacity = seed_units / ladder.full_rate_units
    backlog = 0.0
    in_progress = 0.0
    admitted_total = 0.0
    completions: deque[float] = deque([0.0] * steps_per_show)

    capacity_series: list[SeriesPoint] = []
    backlog_series: list[SeriesPoint] = []
    progress_series: list[SeriesPoint] = []

    sample_every = max(1, round(HOUR / step_seconds))
    num_steps = round(config.horizon_seconds / step_seconds)

    for step in range(num_steps + 1):
        t = step * step_seconds
        if step % sample_every == 0:
            hour = t / HOUR
            capacity_series.append(SeriesPoint(hour, capacity))
            backlog_series.append(SeriesPoint(hour, backlog))
            progress_series.append(SeriesPoint(hour, in_progress))
        if step == num_steps:
            break

        # demand: new first requests during this step
        mass = pattern.cumulative(min(t + step_seconds, pattern.window_seconds))
        mass -= pattern.cumulative(min(t, pattern.window_seconds))
        backlog += mass * total_peers

        # sessions finishing this step free suppliers and add new supply
        finished = completions.popleft()
        in_progress -= finished
        capacity += finished * gain

        # admissions fill whatever supply is free
        free = max(0.0, capacity - in_progress)
        admissions = min(backlog, free)
        backlog -= admissions
        in_progress += admissions
        admitted_total += admissions
        completions.append(admissions)

    return FluidTrajectory(
        capacity=capacity_series,
        backlog=backlog_series,
        in_progress=progress_series,
        admitted_total=admitted_total,
    )
