"""Unit tests for the composable metrics pipeline and its probes."""

import math

import pytest

from repro.core.capacity import CapacityLedger
from repro.errors import ConfigurationError
from repro.scenarios import get_scenario
from repro.simulation.config import SimulationConfig
from repro.simulation.probes import (
    DEFAULT_PROBES,
    PROBE_NAMES,
    MetricsPipeline,
    RunMetrics,
    validate_probes,
)
from repro.simulation.arrayengine import ArrayEngine
from repro.simulation.runner import run_simulation


class TestSubscriptions:
    def test_default_subscribes_the_paper_evaluation(self, ladder):
        pipeline = MetricsPipeline(ladder)
        assert set(pipeline.probes) == set(DEFAULT_PROBES)
        # the lifecycle-extension continuity probe is opt-in, not default
        assert set(PROBE_NAMES) == set(DEFAULT_PROBES) | {"continuity"}

    def test_subset_subscription(self, ladder):
        pipeline = MetricsPipeline(ladder, probes=("capacity",))
        assert set(pipeline.probes) == {"capacity"}
        assert pipeline.wants_capacity_samples
        assert not pipeline.wants_rate_samples
        assert not pipeline.wants_favored_samples

    def test_unknown_probe_rejected(self, ladder):
        with pytest.raises(ConfigurationError):
            MetricsPipeline(ladder, probes=("capacity", "nonexistent"))

    def test_duplicate_probe_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_probes(("capacity", "capacity"))

    def test_config_validates_probes(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(probes=("nonexistent",))
        config = SimulationConfig(probes=["capacity", "table1"])
        assert config.probes == ("capacity", "table1")  # normalized to tuple


class TestUnsubscribedDefaults:
    """Unsubscribed probes read as empty series / NaN means, never KeyError."""

    def test_series_read_empty(self, ladder):
        pipeline = MetricsPipeline(ladder, probes=("table1",))
        assert pipeline.capacity_series == []
        assert pipeline.favored_series == {c: [] for c in ladder.classes}
        assert RunMetrics(pipeline.to_dict()).final_capacity() == 0.0

    def test_means_read_nan(self, ladder):
        # the sums accumulate on every run; only the export masks them
        pipeline = MetricsPipeline(ladder, probes=("capacity",))
        pipeline.first_requests[1] += 1
        pipeline.admitted[1] += 1
        pipeline.rejections_before_admission_sum[1] += 2
        pipeline.waiting_seconds_sum[1] += 60.0
        metrics = RunMetrics(pipeline.to_dict())
        assert all(math.isnan(v) for v in metrics.mean_waiting_seconds().values())
        assert all(
            math.isnan(v)
            for v in metrics.mean_rejections_before_admission().values()
        )
        # admission rate derives from the always-on counters
        assert metrics.admission_rate_percent()[1] == 100.0

    def test_to_dict_key_set_is_subscription_independent(self, ladder):
        full = MetricsPipeline(ladder).to_dict()
        subset = MetricsPipeline(ladder, probes=("capacity",)).to_dict()
        assert set(full) == set(subset)


class TestDispatch:
    def test_only_subscribed_means_are_exported(self, ladder):
        pipeline = MetricsPipeline(ladder, probes=("waiting", "table1"))
        pipeline.first_requests[2] += 1
        pipeline.admitted[2] += 1
        pipeline.rejections_before_admission_sum[2] += 3
        pipeline.buffering_delay_slots_sum[2] += 4
        pipeline.waiting_seconds_sum[2] += 1800.0
        metrics = RunMetrics(pipeline.to_dict())
        assert metrics.mean_waiting_seconds()[2] == 1800.0
        assert metrics.mean_rejections_before_admission()[2] == 3.0
        assert all(
            math.isnan(v) for v in metrics.mean_buffering_delay_slots().values()
        )

    def test_capacity_probe_samples_ledger(self, ladder):
        pipeline = MetricsPipeline(ladder, probes=("capacity",))
        ledger = CapacityLedger(ladder)
        ledger.add_supplier(1)
        pipeline.sample_capacity(3600.0, ledger)
        assert [(p.hour, p.value) for p in pipeline.capacity_series] == [(1.0, 0.0)]
        assert pipeline.supplier_count_series[-1].value == 1.0

    def test_full_pipeline_matches_monolithic_collector_shape(self, ladder):
        collector = MetricsPipeline(ladder)
        collector.first_requests[1] += 1
        collector.requests[1] += 2
        collector.rejections[1] += 1
        collector.reminders_left[1] += 1
        collector.admitted[1] += 1
        collector.rejections_before_admission_sum[1] += 1
        collector.waiting_seconds_sum[1] += 600.0
        collector.sample_rates(3600.0)
        dump = collector.to_dict()
        assert dump["requests"][1] == 2
        assert dump["admission_rate_series"][1] == [(1.0, 100.0)]
        assert dump["mean_waiting_seconds"][1] == 600.0


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def full_run(self):
        return run_simulation(SimulationConfig().scaled(0.004))

    def test_subscribed_series_match_the_full_run(self, full_run):
        """A probe subset records exactly the full pipeline's values for
        the subscribed artifacts — subscription changes cost, not data."""
        config = SimulationConfig(
            probes=("capacity", "admission_rate", "overall_admission")
        ).scaled(0.004)
        result = run_simulation(config)
        full = full_run.metrics.to_dict()
        subset = result.metrics.to_dict()
        for key in (
            "capacity_series",
            "admission_rate_series",
            "overall_admission_rate_series",
            "first_requests",
            "admitted",
            "rejections",
        ):
            assert subset[key] == full[key]
        assert subset["favored_series"] == {c: [] for c in (1, 2, 3, 4)}

    def test_unsubscribed_samplers_schedule_no_events(self, full_run):
        config = SimulationConfig(probes=("table1",)).scaled(0.004)
        result = run_simulation(config)
        # no capacity/rate/favored sampler events at all
        assert result.events_processed < full_run.events_processed

    def test_favored_sampler_skipped_without_favored_probe(self):
        config = SimulationConfig(probes=("capacity",)).scaled(0.004)
        metrics = ArrayEngine(config).run()
        assert metrics.favored_series == {c: [] for c in (1, 2, 3, 4)}

    def test_population_scale_scenarios_subscribe_the_fast_path(self):
        for name in ("metropolis_100k", "flash_crowd_100k", "diurnal_week"):
            config = get_scenario(name).build_config(scale=0.002)
            assert config.probes is not None
            assert "favored" not in config.probes
            assert config.track_messages is False
            result = run_simulation(config)
            assert result.metrics.final_capacity() >= 0.0
            assert result.message_stats is None
