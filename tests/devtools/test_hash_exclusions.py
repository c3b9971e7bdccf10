"""Every config field moves the spec hash, and stored hashes never drift.

Spec hashes key the result store, so a field that ``config_hash`` left
out would let two different runs share one cached record.  These tests
check that property directly, field by field.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.orchestration.runspec import config_hash
from repro.scenarios import get_scenario, scenario_names
from repro.simulation.config import SimulationConfig


def small_config() -> SimulationConfig:
    return SimulationConfig().scaled(0.002)


#: a second valid value for every :class:`SimulationConfig` field, each
#: different from ``small_config()``'s; a new field needs a row here
OTHER_VALUES: dict[str, object] = {
    "seed_suppliers": {1: 2},
    "requesting_peers": {1: 10, 2: 10, 3: 40, 4: 41},
    "num_classes": 5,
    "show_seconds": 1800.0,
    "segment_seconds": 10.0,
    "protocol": "ndac",
    "probe_candidates": 4,
    "t_out_seconds": 600.0,
    "t_bkf_seconds": 300.0,
    "e_bkf": 3.0,
    "arrival_pattern": 3,
    "arrival_window_seconds": 86400.0,
    "horizon_seconds": 604800.0,
    "deterministic_arrivals": False,
    "lookup": "chord",
    "down_probability": 0.1,
    "track_messages": False,
    "lifecycle": "sessions",
    "lifecycle_mean_up_seconds": 3600.0,
    "lifecycle_mean_down_seconds": 600.0,
    "lifecycle_sigma": 0.5,
    "lifecycle_night_factor": 0.5,
    "lifecycle_flash_at_seconds": 3600.0,
    "lifecycle_flash_fraction": 0.5,
    "lifecycle_rejoin": False,
    "lifecycle_recovery": "abandon",
    "probes": ("capacity",),
    "master_seed": 7,
}


class TestEveryFieldIsHashed:
    def test_table_names_every_field(self):
        fields = [f.name for f in dataclasses.fields(SimulationConfig)]
        assert sorted(OTHER_VALUES) == sorted(fields)

    @pytest.mark.parametrize("name", sorted(OTHER_VALUES))
    def test_field_moves_the_hash(self, name):
        base = small_config()
        changed = base.replace(**{name: OTHER_VALUES[name]})
        assert getattr(changed, name) != getattr(base, name)
        assert config_hash(changed) != config_hash(base), (
            f"config_hash ignores the {name!r} field"
        )


class TestHashBehavior:
    def test_hashed_fields_move_the_hash(self):
        base = small_config()
        assert config_hash(base) != config_hash(
            base.replace(master_seed=base.master_seed + 1)
        )
        assert config_hash(base) != config_hash(base.replace(protocol="ndac"))

    def test_hash_is_stable_across_equal_configs(self):
        assert config_hash(small_config()) == config_hash(small_config())


class TestSpecHashPins:
    """Spec hashes are cache keys on disk, so they must never drift by accident.

    Every literal was taken while configs still carried an execution
    field the hash always excluded: the first two under an event-queue
    field (``metropolis_100k`` chose a non-default queue), the
    ``megacity_1m`` one under an engine field the scenario overrode.
    Deleting those fields moved none of them.  Deleting hashed fields
    moves all three on purpose, and each literal is then the sha256 of
    the earlier canonical JSON with exactly those keys removed: first the
    three graceful supplier-churn fields (graceful churn is now the
    ``graceful`` lifecycle model), then the three sampler-period fields
    (the capacity, rate and favored clocks' periods are now constants of
    :mod:`repro.simulation.probes`).  The last literal digests every
    builtin scenario's full-scale spec hash, where a miscopied count
    cannot round away as it can at the golden pins' small scales.
    """

    def test_default_config_hash(self):
        assert config_hash(SimulationConfig()) == (
            "968646f3b549c555b53afe1e384c5b395c660a29cc940fdff949560c450da8e2"
        )

    def test_population_scenario_hash(self):
        config = get_scenario("metropolis_100k").build_config(scale=0.02)
        assert config_hash(config) == (
            "77c7c52b5f1d21b79f432349e6b4c62626447791c07fc313497812699d41f634"
        )

    def test_megacity_scenario_hash(self):
        config = get_scenario("megacity_1m").build_config(scale=0.02)
        assert config_hash(config) == (
            "5660e27f2c94419081297828ec505d667747ad058fb0195693f5c1298464d472"
        )

    def test_every_builtin_scenario_at_full_scale(self):
        hashes = {
            name: config_hash(get_scenario(name).build_config())
            for name in scenario_names()
        }
        digest = hashlib.sha256(json.dumps(hashes, sort_keys=True).encode())
        assert digest.hexdigest() == (
            "8bda20ab0e5a76624ea366af7ba0294d0951198052398c6323702cc98a7080c5"
        )
