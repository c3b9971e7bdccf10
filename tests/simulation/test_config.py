"""Unit tests for the simulation configuration."""

import pytest

from repro.errors import ConfigurationError
from repro.simulation.config import SimulationConfig


class TestPaperDefaults:
    def test_population_is_50100_peers(self):
        config = SimulationConfig()
        assert config.total_peers == 50_100
        assert config.total_requesting == 50_000
        assert config.seed_suppliers == {1: 100}

    def test_class_mix_is_10_10_40_40(self):
        config = SimulationConfig()
        assert config.requesting_peers == {1: 5000, 2: 5000, 3: 20000, 4: 20000}

    def test_protocol_parameters(self):
        config = SimulationConfig()
        assert config.probe_candidates == 8
        assert config.t_out_seconds == 1200.0
        assert config.t_bkf_seconds == 600.0
        assert config.e_bkf == 2.0

    def test_horizon_and_window(self):
        config = SimulationConfig()
        assert config.horizon_seconds == 144 * 3600.0
        assert config.arrival_window_seconds == 72 * 3600.0

    def test_media_is_60_minutes(self):
        assert SimulationConfig().media.show_seconds == 3600.0


class TestValidation:
    def test_needs_at_least_one_seed(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(seed_suppliers={1: 0})

    def test_invalid_pattern_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(arrival_pattern=7)

    def test_window_cannot_exceed_horizon(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                arrival_window_seconds=200 * 3600.0, horizon_seconds=144 * 3600.0
            )

    def test_down_probability_range(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(down_probability=1.0)

    def test_unknown_lookup_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(lookup="gnutella")

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError, match="dac-no-reminder"):
            SimulationConfig(protocol="bogus")
        with pytest.raises(ConfigurationError, match="bogus"):
            SimulationConfig().replace(protocol="bogus")

    def test_invalid_class_in_population(self):
        with pytest.raises(Exception):
            SimulationConfig(requesting_peers={9: 10})

    def test_probes_as_a_bare_string_rejected(self):
        # tuple("capacity") would subscribe 'c', 'a', 'p', ...
        with pytest.raises(ConfigurationError, match="string 'capacity'"):
            SimulationConfig(probes="capacity")


class TestScaling:
    def test_scaled_keeps_ratios(self):
        config = SimulationConfig().scaled(0.1)
        assert config.seed_suppliers == {1: 10}
        assert config.requesting_peers == {1: 500, 2: 500, 3: 2000, 4: 2000}

    def test_tiny_scale_keeps_every_class_alive(self):
        config = SimulationConfig().scaled(0.0001)
        assert all(count >= 1 for count in config.requesting_peers.values())
        assert sum(config.seed_suppliers.values()) >= 1

    def test_scale_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig().scaled(0.0)

    def test_replace_revalidates(self):
        config = SimulationConfig()
        with pytest.raises(ConfigurationError):
            config.replace(probe_candidates=0)

    def test_describe_mentions_key_parameters(self):
        text = SimulationConfig().describe()
        assert "M=8" in text and "pattern 2" in text and "50100 peers" in text
