"""Unit tests for ``run_simulation`` and the studies built on it."""

import pytest

from repro.orchestration.study import Study
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import run_simulation


@pytest.fixture(scope="module")
def config():
    return SimulationConfig(
        seed_suppliers={1: 4},
        requesting_peers={1: 10, 2: 10, 3: 40, 4: 40},
        arrival_pattern=1,
        master_seed=3,
    )


class TestRunSimulation:
    def test_result_carries_config_and_metrics(self, config):
        result = run_simulation(config)
        assert result.config is config
        assert result.events_processed > 0
        assert result.wall_seconds > 0
        assert result.message_stats["messages"] > 0

    def test_max_capacity_accounts_whole_population(self, config):
        result = run_simulation(config)
        # 14 class-1 + 10 class-2 + 40 class-3 + 40 class-4
        assert result.max_capacity == (14 * 8 + 10 * 4 + 40 * 2 + 40) // 16

    def test_capacity_fraction_in_unit_interval(self, config):
        result = run_simulation(config)
        assert 0.0 < result.capacity_fraction_of_max <= 1.0

    def test_summary_mentions_protocol_and_pattern(self, config):
        text = run_simulation(config).summary()
        assert "dac" in text and "pattern 1" in text


class TestCompareProtocols:
    def test_runs_both_protocols(self, config):
        runs = Study.from_config(config).protocols("dac", "ndac").run()
        assert [record.protocol for record in runs] == ["dac", "ndac"]
        assert [r.config.protocol for r in runs.results()] == ["dac", "ndac"]

    def test_custom_protocol_list(self, config):
        runs = Study.from_config(config).protocols("dac", "dac-no-reminder").run()
        assert [record.protocol for record in runs] == ["dac", "dac-no-reminder"]


class TestSweep:
    def test_sweep_replaces_parameter(self, config):
        runs = Study.from_config(config).sweep("probe_candidates", [4, 8]).run()
        assert [r.config.probe_candidates for r in runs.results()] == [4, 8]

    def test_sweep_keys_preserve_values(self, config):
        runs = Study.from_config(config).sweep("e_bkf", [1.0, 2.0]).run()
        assert [record.axis("e_bkf") for record in runs] == [1.0, 2.0]
