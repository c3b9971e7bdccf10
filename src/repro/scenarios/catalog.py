"""The scenario registry and its builtin workloads.

Downstream code (the CLI, benchmarks, examples) asks for workloads by
name instead of hand-rolling config blocks; adding a new workload to the
whole toolchain is one :func:`register` call.  The builtins are the four
paper arrival patterns over the Section-5.1 population, plus the
extension workloads the repository's examples and benchmarks study;
importing :mod:`repro.scenarios` registers all of them.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.scenarios.scenario import Scenario

__all__ = [
    "BUILTIN_SCENARIOS",
    "register",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
]

_SCENARIOS: dict[str, Scenario] = {}


def register(scenario: Scenario, *, replace: bool = False) -> Scenario:
    """Add a scenario to the registry; returns it for chaining.

    Registering a name twice is an error unless ``replace=True`` — silent
    shadowing of a builtin is almost always a bug in user code.
    """
    if scenario.name in _SCENARIOS and not replace:
        raise ConfigurationError(
            f"scenario {scenario.name!r} is already registered "
            "(pass replace=True to override)"
        )
    _SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        known = ", ".join(scenario_names())
        raise ConfigurationError(
            f"unknown scenario {name!r}; registered: {known}"
        ) from None


def scenario_names() -> list[str]:
    """Sorted names of every registered scenario."""
    return sorted(_SCENARIOS)


def all_scenarios() -> list[Scenario]:
    """Every registered scenario, sorted by name."""
    return [_SCENARIOS[name] for name in scenario_names()]


HOUR = 3600.0
DAY = 24 * HOUR

#: the population-scale fast path: a probe subscription that skips the
#: expensive Figure-7 snapshot, and no per-message accounting
FAST_PROBES = ("capacity", "admission_rate", "overall_admission", "table1")
FAST_PATH = {"probes": FAST_PROBES, "track_messages": False}
#: twice the paper's population: 200 seeds and 100k requesters
POPULATION_100K = {
    "seed_suppliers": {1: 200},
    "requesting_peers": {1: 10000, 2: 10000, 3: 40000, 4: 40000},
}
#: first requests over a week, run to an 8-day horizon
WEEK = {"arrival_window_seconds": 7 * DAY, "horizon_seconds": 8 * DAY}

BUILTIN_SCENARIOS: tuple[Scenario, ...] = (
    # ---- the paper's evaluation workloads (population of Section 5.1) ----
    Scenario(
        "paper_default",
        "the paper's evaluation: triangle-shaped arrivals peaking mid-window",
    ),
    Scenario(
        "constant",
        "steady first-request arrivals across the whole window",
        {"arrival_pattern": 1},
    ),
    Scenario(
        "flash_crowd",
        "a premiere: an initial arrival burst, then a long tail",
        {"arrival_pattern": 3},
    ),
    Scenario(
        "diurnal",
        "periodic evening waves as time zones hit prime time",
        {"arrival_pattern": 4},
    ),
    Scenario(
        "quickstart",
        "the guided tour's workload: the paper's world, meant to be run at "
        "a small --scale for smoke tests and CI",
    ),
    # ---- extension workloads -------------------------------------------
    Scenario(
        "heavy_churn",
        "suppliers stay ~8h then leave, rejoining after ~1h",
        {
            "lifecycle": "graceful",
            "lifecycle_mean_up_seconds": 8 * HOUR,
            "lifecycle_mean_down_seconds": 1 * HOUR,
        },
    ),
    Scenario(
        "shrinking_pool",
        "churn with no rejoin: the supplier pool only drains",
        {
            "lifecycle": "graceful",
            "lifecycle_mean_up_seconds": 12 * HOUR,
            "lifecycle_rejoin": False,
        },
    ),
    Scenario(
        "asymmetric_classes",
        "bandwidth-poor audience: 90% of requesters in the bottom class",
        {"requesting_peers": {1: 1000, 2: 1500, 3: 2500, 4: 45000}},
    ),
    Scenario(
        "underreporting",
        "the incentive study's defector world: high-bandwidth peers pledge "
        "(and deliver) class 4",
        {"requesting_peers": {1: 0, 2: 0, 3: 20000, 4: 30000}},
    ),
    Scenario(
        "sparse_seeds",
        "a tenth of the paper's seeds face the full audience",
        {"seed_suppliers": {1: 10}},
    ),
    Scenario(
        "chord_overlay",
        "paper workload discovered over the Chord DHT instead of the "
        "central directory",
        {"lookup": "chord"},
    ),
    Scenario(
        "flaky_network",
        "every probe finds the candidate down 30% of the time",
        {"down_probability": 0.3},
    ),
    # ---- population-scale workloads ------------------------------------
    # Twice the paper's population (100k requesters) and multi-day
    # horizons: tractable interactively only on the fast path.  The probe
    # subset and message tracking are part of what these scenarios
    # *measure*.
    Scenario(
        "metropolis_100k",
        "a metropolis-scale audience: twice the paper's population (100k "
        "requesters) on the fast path",
        {**POPULATION_100K, **FAST_PATH},
    ),
    Scenario(
        "flash_crowd_100k",
        "a metropolis-scale premiere: the 100k-requester audience arriving "
        "as a flash crowd",
        {"arrival_pattern": 3, **POPULATION_100K, **FAST_PATH},
    ),
    Scenario(
        "diurnal_week",
        "a week of evening waves: the paper's population with arrivals over "
        "7 days and an 8-day horizon",
        {"arrival_pattern": 4, **FAST_PATH, **WEEK},
    ),
    Scenario(
        "megacity_1m",
        "a million-requester megacity audience: the paper's class mix at 10x "
        "its population, steady arrivals, the capacity/admission probes only "
        "and no message accounting",
        {
            "arrival_pattern": 1,
            "seed_suppliers": {1: 2000},
            "requesting_peers": {1: 100000, 2: 100000, 3: 400000, 4: 400000},
            **FAST_PATH,
        },
    ),
    # ---- dynamic-membership workloads (session-lifecycle models) --------
    # Suppliers can die *mid-stream* here: departures are scheduled
    # events, active sessions are interrupted, and requesters recover by
    # re-probing and resuming from their buffer position (see
    # repro.simulation.lifecycle).  The continuity probe is subscribed
    # automatically for the default-probe scenarios.
    Scenario(
        "flash_departure",
        "mid-premiere blackout: 30% of suppliers vanish simultaneously at "
        "hour 36, mid-stream sessions must recover",
        {
            "lifecycle": "flash",
            "lifecycle_flash_at_seconds": 36 * HOUR,
            "lifecycle_flash_fraction": 0.3,
            "lifecycle_mean_down_seconds": 1 * HOUR,
        },
    ),
    Scenario(
        "unstable_suppliers_100k",
        "metropolis-scale audience over trace-shaped supplier sessions: "
        "heavy-tailed online periods, mid-stream recovery",
        {
            **POPULATION_100K,
            "lifecycle": "sessions",
            "lifecycle_mean_up_seconds": 6 * HOUR,
            "lifecycle_mean_down_seconds": 45 * 60.0,
            "lifecycle_sigma": 1.0,
            **FAST_PATH,
            "probes": FAST_PROBES + ("continuity",),
        },
    ),
    Scenario(
        "diurnal_churn_week",
        "a week of evening waves where suppliers also sleep at night: "
        "diurnal departures over the 8-day horizon",
        {
            "arrival_pattern": 4,
            "lifecycle": "diurnal",
            "lifecycle_mean_up_seconds": 10 * HOUR,
            "lifecycle_mean_down_seconds": 45 * 60.0,
            "lifecycle_night_factor": 0.25,
            **FAST_PATH,
            "probes": FAST_PROBES + ("continuity",),
            **WEEK,
        },
    ),
)

for _scenario in BUILTIN_SCENARIOS:
    register(_scenario)
