"""The hash-exclusion allowlist behaves as documented, not just as linted.

The detlint ``config-hash-drift`` rule pins the *static* agreement
between ``HASH_EXCLUDED_FIELDS`` and ``config_hash``; these tests pin
the *dynamic* claim each rationale makes — excluded fields really do
not move the hash, and every other field really does.
"""

import dataclasses

from repro.orchestration.runspec import HASH_EXCLUDED_FIELDS, config_hash
from repro.scenarios import get_scenario
from repro.simulation.config import SimulationConfig


def small_config() -> SimulationConfig:
    return SimulationConfig().scaled(0.002)


class TestAllowlist:
    def test_excluded_fields_are_real_config_fields(self):
        names = {f.name for f in dataclasses.fields(SimulationConfig)}
        assert set(HASH_EXCLUDED_FIELDS) <= names

    def test_every_exclusion_has_a_written_rationale(self):
        for name, rationale in HASH_EXCLUDED_FIELDS.items():
            assert rationale.strip(), f"{name} has no rationale"

    def test_the_documented_exclusion_is_engine(self):
        assert set(HASH_EXCLUDED_FIELDS) == {"engine"}


class TestHashBehavior:
    def test_excluded_fields_do_not_move_the_hash(self):
        base = small_config()
        assert config_hash(base) == config_hash(base.replace(engine="array"))

    def test_hashed_fields_move_the_hash(self):
        base = small_config()
        assert config_hash(base) != config_hash(
            base.replace(master_seed=base.master_seed + 1)
        )
        assert config_hash(base) != config_hash(base.replace(protocol="ndac"))

    def test_hash_is_stable_across_equal_configs(self):
        assert config_hash(small_config()) == config_hash(small_config())


class TestSpecHashPins:
    """Spec hashes are cache keys on disk, so they must never drift.

    Both literals were taken while configs still carried an event-queue
    field, which the hash always excluded; the scenario one chose a
    non-default queue.  Deleting the field moved neither.
    """

    def test_default_config_hash(self):
        assert config_hash(SimulationConfig()) == (
            "973a7a582c709f3625e8ba3c491c3bb58a61d311bd143d54e4f3c64ab2e19c2f"
        )

    def test_population_scenario_hash(self):
        config = get_scenario("metropolis_100k").build_config(scale=0.02)
        assert config_hash(config) == (
            "454b6122da2367f0415b80080f48a53875aa89fb927d3e0c235c0061c287e253"
        )
