"""Unit tests for the metrics pipeline with every probe subscribed."""

import math

import pytest

from repro.core.capacity import CapacityLedger
from repro.simulation.probes import MetricsPipeline


@pytest.fixture
def collector(ladder):
    return MetricsPipeline(ladder)


class TestCounters:
    def test_first_request_counts_once_per_peer(self, collector):
        collector.on_first_request(3)
        collector.on_retry(3)
        collector.on_retry(3)
        assert collector.first_requests[3] == 1
        assert collector.requests[3] == 3

    def test_admission_accumulates_table1_inputs(self, collector):
        collector.on_first_request(2)
        collector.on_admission(
            2, rejections_before=3, num_suppliers=4,
            buffering_delay_slots=4, waiting_seconds=1800.0,
        )
        collector.on_first_request(2)
        collector.on_admission(
            2, rejections_before=1, num_suppliers=2,
            buffering_delay_slots=2, waiting_seconds=600.0,
        )
        assert collector.mean_rejections_before_admission()[2] == 2.0
        assert collector.mean_buffering_delay_slots()[2] == 3.0
        assert collector.mean_waiting_seconds()[2] == 1200.0
        assert collector.admission_rate_percent()[2] == 100.0

    def test_unadmitted_class_reports_nan(self, collector):
        assert math.isnan(collector.mean_rejections_before_admission()[1])
        assert math.isnan(collector.admission_rate_percent()[1])

    def test_reminders_counted_by_class(self, collector):
        collector.on_reminder(1)
        collector.on_reminder(1)
        assert collector.reminders_left[1] == 2


class TestSampling:
    def test_capacity_series_grows(self, collector, ladder):
        ledger = CapacityLedger(ladder)
        collector.sample_capacity(0.0, ledger)
        ledger.add_supplier(1)
        ledger.add_supplier(1)
        collector.sample_capacity(3600.0, ledger)
        assert [(p.hour, p.value) for p in collector.capacity_series] == [
            (0.0, 0.0),
            (1.0, 1.0),
        ]
        assert collector.capacity_fractional_series[-1].value == 1.0
        assert collector.supplier_count_series[-1].value == 2.0

    def test_rate_sampling_skips_classes_without_requests(self, collector):
        collector.on_first_request(1)
        collector.sample_rates(7200.0)
        assert len(collector.admission_rate_series[1]) == 1
        assert collector.admission_rate_series[2] == []
        assert collector.overall_admission_rate_series[0].value == 0.0

    def test_rate_values_are_percentages(self, collector):
        for _ in range(4):
            collector.on_first_request(1)
        collector.on_admission(1, 0, 2, 2, 0.0)
        collector.sample_rates(3600.0)
        assert collector.admission_rate_series[1][-1].value == 25.0

    def test_favored_sampling_averages_per_class(self, collector):
        collector.sample_favored(10800.0, {1: [1, 2, 3], 2: [], 3: [4]})
        assert collector.favored_series[1][0].value == 2.0
        assert collector.favored_series[3][0].value == 4.0
        assert collector.favored_series[2] == []  # no suppliers -> no sample


class TestExport:
    def test_to_dict_roundtrips_series(self, collector, ladder):
        ledger = CapacityLedger(ladder)
        ledger.add_supplier(1)
        collector.sample_capacity(0.0, ledger)
        collector.on_first_request(1)
        collector.on_admission(1, 0, 2, 2, 0.0)
        collector.sample_rates(3600.0)
        dump = collector.to_dict()
        assert dump["capacity_series"] == [(0.0, 0.0)]
        assert dump["admitted"][1] == 1
        assert dump["admission_rate_series"][1] == [(1.0, 100.0)]

    def test_final_capacity_empty_series(self, collector):
        assert collector.final_capacity() == 0.0
