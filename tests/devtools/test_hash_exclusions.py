"""The hash-exclusion allowlist behaves as documented, not just as linted.

The detlint ``config-hash-drift`` rule pins the *static* agreement
between ``HASH_EXCLUDED_FIELDS`` and ``config_hash``; these tests pin
the *dynamic* claims — the allowlist is empty, hashed fields really move
the hash, and the hashes stored on disk never drift.
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

    def test_no_field_is_excluded(self):
        assert HASH_EXCLUDED_FIELDS == {}


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
    Deleting those fields moved none of them.  Deleting the three graceful
    supplier-churn fields, which the hash did cover (graceful churn is now
    the ``graceful`` lifecycle model), moved all three on purpose: each
    literal is the sha256 of the earlier canonical JSON with exactly those
    three keys removed.
    """

    def test_default_config_hash(self):
        assert config_hash(SimulationConfig()) == (
            "223d7856138c121b90e22685bca2806499fcc6b9b6e3b51270e3b4128b17a476"
        )

    def test_population_scenario_hash(self):
        config = get_scenario("metropolis_100k").build_config(scale=0.02)
        assert config_hash(config) == (
            "cc6e04caabfcf9ef6dd481e42031d72ec83df781d2398a5ee34f3364ecfeff41"
        )

    def test_megacity_scenario_hash(self):
        config = get_scenario("megacity_1m").build_config(scale=0.02)
        assert config_hash(config) == (
            "c4b6f724651a4f37d447acc83d56194423b3e1b6c2f95114eee985933c1b5c2f"
        )
