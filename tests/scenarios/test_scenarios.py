"""Tests for the declarative scenario layer."""

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    Scenario,
    all_scenarios,
    get_scenario,
    register,
    scenario_names,
)
from repro.simulation.arrayengine import ArrayEngine
from repro.simulation.config import SimulationConfig


class TestRegistry:
    def test_builtins_are_registered(self):
        names = scenario_names()
        for expected in (
            "paper_default",
            "constant",
            "flash_crowd",
            "diurnal",
            "heavy_churn",
            "asymmetric_classes",
            "underreporting",
            "chord_overlay",
            "flash_departure",
            "unstable_suppliers_100k",
            "diurnal_churn_week",
        ):
            assert expected in names

    def test_lifecycle_scenarios_select_their_models(self):
        for name, model in (
            ("flash_departure", "flash"),
            ("unstable_suppliers_100k", "sessions"),
            ("diurnal_churn_week", "diurnal"),
        ):
            assert get_scenario(name).build_config().lifecycle == model
        config = get_scenario("flash_departure").build_config(scale=0.02)
        assert config.lifecycle == "flash"
        assert config.lifecycle_recovery == "resume"
        # the 100k lifecycle scenario rides the fast path with continuity
        config = get_scenario("unstable_suppliers_100k").build_config(scale=0.01)
        assert "continuity" in config.probes

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ConfigurationError, match="paper_default"):
            get_scenario("nope")

    def test_duplicate_registration_rejected(self):
        scenario = get_scenario("constant")
        with pytest.raises(ConfigurationError, match="already registered"):
            register(scenario)
        # explicit replacement is allowed and idempotent
        assert register(scenario, replace=True) is scenario

    def test_all_scenarios_sorted_and_described(self):
        scenarios = all_scenarios()
        assert [s.name for s in scenarios] == scenario_names()
        for scenario in scenarios:
            assert scenario.name in scenario.describe()


class TestBuildConfig:
    def test_paper_default_is_the_config_default(self):
        assert get_scenario("paper_default").build_config() == SimulationConfig()

    def test_scale_applies_before_overrides(self):
        config = get_scenario("paper_default").build_config(
            scale=0.01, probe_candidates=4
        )
        assert config.requesting_peers[1] == 50
        assert config.probe_candidates == 4

    def test_overrides_win_over_scenario_fields(self):
        config = get_scenario("chord_overlay").build_config(lookup="directory")
        assert config.lookup == "directory"

    def test_overrides_set_config_fields(self):
        scenario = Scenario(
            name="short_show_for_test",
            description="a 10-minute clip",
            overrides={"show_seconds": 600.0},
        )
        assert scenario.build_config().show_seconds == 600.0

    def test_built_configs_share_no_population_dict(self):
        scenario = get_scenario("metropolis_100k")
        first = scenario.build_config()
        first.requesting_peers[1] = 1
        first.seed_suppliers[1] = 1
        second = scenario.build_config()
        assert second.requesting_peers == {1: 10000, 2: 10000, 3: 40000, 4: 40000}
        assert second.seed_suppliers == {1: 200}

    def test_invalid_names_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="", description="x")
        with pytest.raises(ConfigurationError):
            Scenario(name="has space", description="x")
        with pytest.raises(ConfigurationError):
            Scenario(name="ok", description="")

    def test_scenarios_are_hashable(self):
        assert len({s for s in all_scenarios()}) == len(all_scenarios())


class TestRoundTrip:
    """Every registered scenario builds a valid config and simulates."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_builds_and_runs_to_the_horizon(self, name):
        config = get_scenario(name).build_config(scale=0.004)
        engine = ArrayEngine(config)  # __post_init__ validated the config
        # t=0 samplers ran, so every scenario produces a live metrics feed
        assert engine.metrics.capacity_series
        engine.run()
        assert engine.now == config.horizon_seconds

    @pytest.mark.parametrize("name", scenario_names())
    def test_configs_are_deterministic(self, name):
        scenario = get_scenario(name)
        assert scenario.build_config(scale=0.01) == scenario.build_config(scale=0.01)
