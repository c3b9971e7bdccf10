"""Builtin scenario catalog.

The four paper arrival patterns over the Section-5.1 population, plus the
extension workloads the repository's examples and benchmarks study.
Importing :mod:`repro.scenarios` registers all of them.
"""

from __future__ import annotations

from repro.scenarios.registry import register
from repro.scenarios.scenario import Scenario

__all__ = ["BUILTIN_SCENARIOS"]

HOUR = 3600.0

BUILTIN_SCENARIOS: tuple[Scenario, ...] = (
    # ---- the paper's evaluation workloads (population of Section 5.1) ----
    Scenario(
        name="paper_default",
        description="the paper's evaluation: triangle-shaped arrivals "
        "peaking mid-window",
        arrival_pattern=2,
    ),
    Scenario(
        name="constant",
        description="steady first-request arrivals across the whole window",
        arrival_pattern=1,
    ),
    Scenario(
        name="flash_crowd",
        description="a premiere: an initial arrival burst, then a long tail",
        arrival_pattern=3,
    ),
    Scenario(
        name="diurnal",
        description="periodic evening waves as time zones hit prime time",
        arrival_pattern=4,
    ),
    Scenario(
        name="quickstart",
        description="the guided tour's workload: the paper's world, meant "
        "to be run at a small --scale for smoke tests and CI",
        arrival_pattern=2,
    ),
    # ---- extension workloads -------------------------------------------
    Scenario(
        name="heavy_churn",
        description="suppliers stay ~8h then leave, rejoining after ~1h",
        arrival_pattern=2,
        lifecycle="graceful",
        config_overrides=(
            ("lifecycle_mean_up_seconds", 8 * HOUR),
            ("lifecycle_mean_down_seconds", 1 * HOUR),
        ),
    ),
    Scenario(
        name="shrinking_pool",
        description="churn with no rejoin: the supplier pool only drains",
        arrival_pattern=2,
        lifecycle="graceful",
        config_overrides=(
            ("lifecycle_mean_up_seconds", 12 * HOUR),
            ("lifecycle_rejoin", False),
        ),
    ),
    Scenario(
        name="asymmetric_classes",
        description="bandwidth-poor audience: 90% of requesters in the "
        "bottom class",
        arrival_pattern=2,
        requesting_peers=((1, 1000), (2, 1500), (3, 2500), (4, 45000)),
    ),
    Scenario(
        name="underreporting",
        description="the incentive study's defector world: high-bandwidth "
        "peers pledge (and deliver) class 4",
        arrival_pattern=2,
        requesting_peers=((1, 0), (2, 0), (3, 20000), (4, 30000)),
    ),
    Scenario(
        name="sparse_seeds",
        description="a tenth of the paper's seeds face the full audience",
        arrival_pattern=2,
        seed_suppliers=((1, 10),),
    ),
    Scenario(
        name="chord_overlay",
        description="paper workload discovered over the Chord DHT instead "
        "of the central directory",
        arrival_pattern=2,
        lookup="chord",
    ),
    Scenario(
        name="flaky_network",
        description="every probe finds the candidate down 30% of the time",
        arrival_pattern=2,
        down_probability=0.3,
    ),
    # ---- population-scale workloads ------------------------------------
    # Twice the paper's population (100k requesters) and multi-day
    # horizons: tractable interactively only on the fast path — a probe
    # subscription that skips the expensive Figure-7 snapshot, and no
    # per-message accounting.  The probe subset and message tracking are
    # part of what these scenarios *measure*.
    Scenario(
        name="metropolis_100k",
        description="a metropolis-scale audience: twice the paper's "
        "population (100k requesters) on the fast path",
        arrival_pattern=2,
        seed_suppliers=((1, 200),),
        requesting_peers=((1, 10000), (2, 10000), (3, 40000), (4, 40000)),
        config_overrides=(
            ("probes", ("capacity", "admission_rate", "overall_admission", "table1")),
            ("track_messages", False),
        ),
    ),
    Scenario(
        name="flash_crowd_100k",
        description="a metropolis-scale premiere: the 100k-requester "
        "audience arriving as a flash crowd",
        arrival_pattern=3,
        seed_suppliers=((1, 200),),
        requesting_peers=((1, 10000), (2, 10000), (3, 40000), (4, 40000)),
        config_overrides=(
            ("probes", ("capacity", "admission_rate", "overall_admission", "table1")),
            ("track_messages", False),
        ),
    ),
    Scenario(
        name="diurnal_week",
        description="a week of evening waves: the paper's population with "
        "arrivals over 7 days and an 8-day horizon",
        arrival_pattern=4,
        config_overrides=(
            ("probes", ("capacity", "admission_rate", "overall_admission", "table1")),
            ("track_messages", False),
            ("arrival_window_seconds", 7 * 24 * HOUR),
            ("horizon_seconds", 8 * 24 * HOUR),
        ),
    ),
    Scenario(
        name="megacity_1m",
        description="a million-requester megacity audience: the paper's "
        "class mix at 10x its population, steady arrivals, the "
        "capacity/admission probes only and no message accounting",
        arrival_pattern=1,
        seed_suppliers=((1, 2000),),
        requesting_peers=(
            (1, 100000),
            (2, 100000),
            (3, 400000),
            (4, 400000),
        ),
        config_overrides=(
            ("probes", ("capacity", "admission_rate", "overall_admission", "table1")),
            ("track_messages", False),
        ),
    ),
    # ---- dynamic-membership workloads (session-lifecycle models) --------
    # Suppliers can die *mid-stream* here: departures are scheduled
    # events, active sessions are interrupted, and requesters recover by
    # re-probing and resuming from their buffer position (see
    # repro.simulation.lifecycle).  The continuity probe is subscribed
    # automatically for the default-probe scenarios.
    Scenario(
        name="flash_departure",
        description="mid-premiere blackout: 30% of suppliers vanish "
        "simultaneously at hour 36, mid-stream sessions must recover",
        arrival_pattern=2,
        lifecycle="flash",
        config_overrides=(
            ("lifecycle_flash_at_seconds", 36 * HOUR),
            ("lifecycle_flash_fraction", 0.3),
            ("lifecycle_mean_down_seconds", 1 * HOUR),
        ),
    ),
    Scenario(
        name="unstable_suppliers_100k",
        description="metropolis-scale audience over trace-shaped supplier "
        "sessions: heavy-tailed online periods, mid-stream recovery",
        arrival_pattern=2,
        seed_suppliers=((1, 200),),
        requesting_peers=((1, 10000), (2, 10000), (3, 40000), (4, 40000)),
        lifecycle="sessions",
        config_overrides=(
            ("lifecycle_mean_up_seconds", 6 * HOUR),
            ("lifecycle_mean_down_seconds", 45 * 60.0),
            ("lifecycle_sigma", 1.0),
            (
                "probes",
                (
                    "capacity",
                    "admission_rate",
                    "overall_admission",
                    "table1",
                    "continuity",
                ),
            ),
            ("track_messages", False),
        ),
    ),
    Scenario(
        name="diurnal_churn_week",
        description="a week of evening waves where suppliers also sleep at "
        "night: diurnal departures over the 8-day horizon",
        arrival_pattern=4,
        lifecycle="diurnal",
        config_overrides=(
            ("lifecycle_mean_up_seconds", 10 * HOUR),
            ("lifecycle_mean_down_seconds", 45 * 60.0),
            ("lifecycle_night_factor", 0.25),
            (
                "probes",
                (
                    "capacity",
                    "admission_rate",
                    "overall_admission",
                    "table1",
                    "continuity",
                ),
            ),
            ("track_messages", False),
            ("arrival_window_seconds", 7 * 24 * HOUR),
            ("horizon_seconds", 8 * 24 * HOUR),
        ),
    ),
)

for _scenario in BUILTIN_SCENARIOS:
    register(_scenario)
