"""The engine's running Figure-7 sums against a walk of its columns.

:class:`~repro.simulation.arrayengine.ArrayEngine` keeps, per supplier
class, Σ|level| over its live (registered, not departed) suppliers, and
the ledger keeps their count; a Figure-7 sample divides the two.  Here
random small populations run under every lifecycle model and both
``resume`` and ``abandon`` recovery, and after every dispatched event —
arrivals, retries, session ends, idle elevations, departures, returns,
interruptions, recoveries and samples — the sums and counts must equal a
walk of the ``level`` and ``departed`` columns, and each Figure-7 sample
the mean that walk gives.
"""

import random

import pytest

from repro.protocols import POLICY_REGISTRY
from repro.simulation.arrayengine import ArrayEngine
from repro.simulation.config import SimulationConfig
from repro.simulation.lifecycle import LIFECYCLE_MODELS, LIFECYCLE_NAMES

HOUR = 3600.0
POPULATIONS = 3


def live_levels(engine) -> dict[int, list[int]]:
    """|level| of every live supplier, by class: the walk the sums replace."""
    peers = engine.peers
    by_class = {c: [] for c in engine.ladder.classes}
    for pid in range(len(peers)):
        if peers.level[pid] != 0 and not peers.departed[pid]:
            by_class[peers.peer_class[pid]].append(abs(peers.level[pid]))
    return by_class


class CheckedEngine(ArrayEngine):
    """An engine that recounts the sums after each event it dispatches
    (the subclass has an instance dict, so the arrival lane's handler can
    be wrapped too)."""

    def __init__(self, config):
        super().__init__(config)
        self.checks = 0
        self.assert_sums("construction", sampled=True)
        self._handlers = [self._checked(handler) for handler in self._handlers]
        self._on_request = self._handlers[0]

    def _checked(self, handler):
        sampled = handler.__name__ == "_sample_favored"

        def checked(payload):
            handler(payload)
            self.assert_sums((handler.__name__, payload, self.now), sampled)

        return checked

    def assert_sums(self, context, sampled=False):
        for peer_class, values in live_levels(self).items():
            held = (
                self.ledger.per_class_count[peer_class],
                self._favored_sum[peer_class],
            )
            assert held == (len(values), sum(values)), (peer_class, context)
            if sampled and values:
                # the sample just taken is the walk's own mean, to the bit
                point = self.metrics.favored_series[peer_class][-1]
                assert point.hour == self.now / HOUR, context
                assert point.value == sum(values) / len(values), context
        self.checks += 1


def random_config(rng, lifecycle, recovery):
    num_classes = rng.randint(2, 4)
    classes = range(1, num_classes + 1)
    seeds = {c: rng.randint(0, 2) for c in classes}
    seeds[1] += 2  # at least two full-rate seeds, so sessions start
    return SimulationConfig(
        num_classes=num_classes,
        seed_suppliers=seeds,
        requesting_peers={c: rng.randint(3, 12) for c in classes},
        protocol=rng.choice(sorted(POLICY_REGISTRY)),
        arrival_pattern=rng.randint(1, 4),
        deterministic_arrivals=rng.random() < 0.7,
        probe_candidates=rng.randint(4, 8),
        down_probability=rng.choice([0.0, 0.1]),
        lifecycle=lifecycle,
        lifecycle_recovery=recovery,
        lifecycle_mean_up_seconds=rng.uniform(2, 8) * HOUR,
        lifecycle_mean_down_seconds=rng.uniform(0.5, 3) * HOUR,
        lifecycle_flash_at_seconds=rng.uniform(12, 60) * HOUR,
        lifecycle_flash_fraction=0.5,
        lifecycle_rejoin=rng.random() < 0.8,
        track_messages=False,
        master_seed=rng.randrange(2**32),
    )


@pytest.mark.parametrize("recovery", ["resume", "abandon"])
@pytest.mark.parametrize("lifecycle", LIFECYCLE_NAMES)
def test_sums_equal_a_walk_after_every_event(lifecycle, recovery):
    rng = random.Random(f"favored-sums:{lifecycle}:{recovery}")
    seen = {"admitted": 0, "departures": 0, "rejoins": 0, "interruptions": 0}
    for _ in range(POPULATIONS):
        engine = CheckedEngine(random_config(rng, lifecycle, recovery))
        metrics = engine.run()
        assert engine.checks == engine.events_processed + 1
        assert any(metrics.favored_series.values())
        seen["admitted"] += sum(metrics.admitted.values())
        seen["departures"] += sum(metrics.supplier_departures.values())
        seen["rejoins"] += sum(metrics.supplier_rejoins.values())
        seen["interruptions"] += sum(metrics.interruptions.values())
    # every write site the model reaches was exercised
    assert seen["admitted"] > 0
    if lifecycle != "none":
        assert seen["departures"] > 0 and seen["rejoins"] > 0
    if LIFECYCLE_MODELS[lifecycle].interrupts_sessions:
        assert seen["interruptions"] > 0
