"""Golden behaviour fingerprints: every builtin scenario, pinned byte for byte.

``golden_fingerprints.json`` pins the fingerprint of:

* every builtin scenario at scale 0.02, and again at 0.004;
* ``paper_default``, ``heavy_churn``, ``flaky_network`` and
  ``flash_departure`` at 0.02 under every other admission policy, since
  each policy drives the supplier state differently;
* ``flash_departure`` under each recovery mode;
* ``unstable_suppliers_100k`` under the ``onoff`` model, without rejoin,
  under both, and under ``abandon`` recovery, and ``flash_departure``
  under the ``onoff`` model, paths of the lifecycle models no other pin
  reaches;
* ``unstable_suppliers_100k`` and ``diurnal_churn_week`` under
  ``dac-linear-elevation``;
* ``flash_departure`` subscribed to each single metrics probe, because
  the subscription decides which sampler clocks run, and sampler events
  count in the event total and take sequence numbers;
* the nine seeded configs of :func:`randomized_configs`, once as drawn
  and once under ``dac-linear-elevation``.

``quickstart`` and ``flash_departure`` at 0.008 under ``dac`` and
``dac-linear-elevation``, and every other ``dac-linear-elevation`` run,
also pin a digest of their trace events.

Every pinned run is run once, traced, on
:class:`~repro.simulation.arrayengine.ArrayEngine`: its fingerprint must
match, and :func:`~repro.simulation.validation.audit_system` must find
no violation of S1–S6 or T1–T4.  Tracing only observes, so it leaves the
fingerprint alone.

Every pin was captured on an object-per-peer implementation of the same
model (since retired), except the five ``unstable_suppliers_100k`` and
``diurnal_churn_week`` variants, which were captured through
``run_simulation`` while the lifecycle models still drew each answer
lazily at query time, and the two ``onoff`` pins of ``flash_departure``
and of ``unstable_suppliers_100k`` without rejoin, which were captured
on the array engine while ``onoff`` still answered a query at any time
from a boundary list kept from time 0.  At 0.02 every scenario but ``sparse_seeds``
admits peers, so those pins cover the request path, not only arrivals;
at 0.004 and 0.008 a scenario has one seed supplier, and only
``megacity_1m`` admits anyone.  A mismatch means a change moved the
behaviour of a run; a refactor must never do that.  Re-pin only on
purpose, and say why.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.scenarios import all_scenarios, get_scenario
from repro.simulation.arrayengine import ArrayEngine
from repro.simulation.config import SimulationConfig
from repro.simulation.lifecycle import RECOVERY_MODES
from repro.simulation.runner import run_simulation
from repro.simulation.trace import TraceRecorder
from repro.simulation.validation import audit_system

GOLDEN = json.loads(
    Path(__file__).with_name("golden_fingerprints.json").read_text()
)


def randomized_configs() -> list[SimulationConfig]:
    """Nine seeded small configs over the dimensions that steer control flow.

    Eight draws cover arrival pattern, admission policy, lookup service,
    probe loss, lifecycle model and recovery, message accounting and
    stochastic arrivals.  None of them pairs graceful departures with
    probe loss, whose draws share the churn stream, so a ninth config
    does.
    """
    rng = random.Random(20020701)
    protocols = ["dac", "dac-generous-init", "dac-no-elevation",
                 "dac-no-reminder", "ndac"]
    configs = [
        SimulationConfig(
            seed_suppliers={1: rng.randint(2, 6)},
            requesting_peers={
                peer_class: rng.randint(10, 60) for peer_class in (1, 2, 3, 4)
            },
            protocol=rng.choice(protocols),
            arrival_pattern=rng.randint(1, 4),
            deterministic_arrivals=rng.random() < 0.75,
            lookup=rng.choice(("directory", "chord")),
            down_probability=rng.choice((0.0, 0.3)),
            track_messages=rng.random() < 0.5,
            lifecycle=rng.choice(
                ("none", "none", "graceful", "sessions", "flash", "diurnal")
            ),
            lifecycle_recovery=rng.choice(RECOVERY_MODES),
            lifecycle_rejoin=rng.random() < 0.5,
            master_seed=rng.randint(1, 2**31),
        )
        for _attempt in range(8)
    ]
    configs.append(
        SimulationConfig(
            seed_suppliers={1: 4},
            requesting_peers={1: 20, 2: 20, 3: 40, 4: 40},
            down_probability=0.3,
            lifecycle="graceful",
            master_seed=17,
        )
    )
    return configs


RANDOMIZED = randomized_configs()


def golden_config(run: dict) -> SimulationConfig:
    """The config one pinned run describes."""
    if "random_config" in run:
        return RANDOMIZED[run["random_config"]].replace(**run["overrides"])
    return get_scenario(run["scenario"]).build_config(
        scale=run.get("scale", GOLDEN["scale"]), **run["overrides"]
    )


def behavior_fingerprint(metrics, events_processed, message_stats) -> str:
    """sha256 over a run's metrics payload, event count and message stats."""
    payload = {
        "metrics": metrics.to_dict(),
        "events_processed": events_processed,
        "message_stats": message_stats,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def trace_digest(trace: TraceRecorder) -> str:
    """sha256 over the canonical JSON of the trace events, in order."""
    canonical = json.dumps(trace.events, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def test_every_builtin_scenario_is_pinned():
    for scale in (GOLDEN["scale"], 0.004):
        pinned = {
            run["scenario"]
            for run in GOLDEN["runs"].values()
            if "scenario" in run and run.get("scale", GOLDEN["scale"]) == scale
        }
        assert pinned == {s.name for s in all_scenarios()}, (
            f"builtin scenario set changed at scale {scale}; pin the new "
            "scenario deliberately"
        )


def test_every_randomized_config_is_pinned():
    pinned = {
        (run["random_config"], run["overrides"].get("protocol"))
        for run in GOLDEN["runs"].values()
        if "random_config" in run
    }
    assert pinned == {
        (index, protocol)
        for index in range(len(RANDOMIZED))
        for protocol in (None, "dac-linear-elevation")
    }


@pytest.mark.parametrize("label", sorted(GOLDEN["runs"]))
def test_golden_fingerprint(label):
    run = GOLDEN["runs"][label]
    trace = TraceRecorder()
    engine = ArrayEngine(golden_config(run), trace=trace)
    metrics = engine.run()
    admitted = sum(metrics.admitted.values())
    if label in GOLDEN["admits_nobody"]:
        assert admitted == 0
    else:
        assert admitted > 0, f"{label} admits nobody; the pin misses the request path"
    message_stats = (
        engine.transport.snapshot() if engine.transport is not None else None
    )
    fingerprint = behavior_fingerprint(
        metrics, engine.events_processed, message_stats
    )
    assert fingerprint == run["fingerprint"], f"behaviour drift in {label!r}"
    if "trace_digest" in run:
        assert trace_digest(trace) == run["trace_digest"], (
            f"trace drift in {label!r}"
        )
    report = audit_system(engine, trace)
    assert report.ok, report.summary()


def test_linear_elevation_runs_on_the_array_engine():
    """``run_simulation`` runs ``dac-linear-elevation`` on the array engine:
    the step column moves, and the result matches its pin."""
    run = GOLDEN["runs"]["paper_default/dac-linear-elevation"]
    config = golden_config(run)
    engine = ArrayEngine(config)
    engine.run()
    assert max(engine.peers.step) > 0
    result = run_simulation(config)
    fingerprint = behavior_fingerprint(
        result.metrics, result.events_processed, result.message_stats
    )
    assert fingerprint == run["fingerprint"]
