"""Golden behaviour fingerprints: every builtin scenario, pinned byte for byte.

``golden_fingerprints.json`` pins the fingerprint of every builtin
scenario at scale 0.02, of ``paper_default`` under ``ndac`` and of
``flash_departure`` under each recovery mode.  At that scale every
scenario but ``sparse_seeds`` admits peers, so the pins cover the request
path, not only arrivals.  A mismatch means a change moved the behaviour of
a run; a refactor must never do that.  Re-pin only on purpose, and say
why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.scenarios import all_scenarios, get_scenario
from repro.simulation.runner import run_simulation

GOLDEN = json.loads(
    Path(__file__).with_name("golden_fingerprints.json").read_text()
)


def behavior_fingerprint(result) -> str:
    """sha256 over the run's metrics payload, event count and message stats."""
    payload = {
        "metrics": result.metrics.to_dict(),
        "events_processed": result.events_processed,
        "message_stats": result.message_stats,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def test_every_builtin_scenario_is_pinned():
    pinned = {run["scenario"] for run in GOLDEN["runs"].values()}
    assert pinned == {s.name for s in all_scenarios()}, (
        "builtin scenario set changed; pin the new scenario deliberately"
    )


@pytest.mark.parametrize("label", sorted(GOLDEN["runs"]))
def test_golden_fingerprint(label):
    run = GOLDEN["runs"][label]
    config = get_scenario(run["scenario"]).build_config(
        scale=GOLDEN["scale"], **run["overrides"]
    )
    result = run_simulation(config)
    admitted = sum(result.metrics.admitted.values())
    if label in GOLDEN["admits_nobody"]:
        assert admitted == 0
    else:
        assert admitted > 0, f"{label} admits nobody; the pin misses the request path"
    assert behavior_fingerprint(result) == run["fingerprint"], (
        f"behaviour drift in {label!r}"
    )
