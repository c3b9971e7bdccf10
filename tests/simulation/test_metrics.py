"""Unit tests for the metrics pipeline with every probe subscribed, and
the counters the engine bumps in it checked against the engine's own
per-peer columns."""

import math

import pytest

from repro.core.capacity import CapacityLedger
from repro.scenarios import get_scenario
from repro.simulation.arrayengine import ArrayEngine
from repro.simulation.config import SimulationConfig
from repro.simulation.probes import MetricsPipeline, RunMetrics


@pytest.fixture
def collector(ladder):
    return MetricsPipeline(ladder)


class TestCounters:
    def test_first_request_counts_once_per_peer(self):
        # one seed can never cover R0, so every request is rejected and
        # the requester's later requests are retries
        engine = ArrayEngine(SimulationConfig().scaled(0.004))
        pid = engine._num_seeds
        peer_class = engine.peers.peer_class[pid]
        for _ in range(3):
            engine._on_request(pid)
        assert engine.metrics.first_requests[peer_class] == 1
        assert engine.metrics.requests[peer_class] == 3
        assert engine.metrics.rejections[peer_class] == 3

    def test_admission_sums_export_as_table1_means(self, collector):
        collector.first_requests[2] += 2
        collector.admitted[2] += 2
        collector.rejections_before_admission_sum[2] += 3 + 1
        collector.buffering_delay_slots_sum[2] += 4 + 2
        collector.waiting_seconds_sum[2] += 1800.0 + 600.0
        metrics = RunMetrics(collector.to_dict())
        assert metrics.mean_rejections_before_admission()[2] == 2.0
        assert metrics.mean_buffering_delay_slots()[2] == 3.0
        assert metrics.mean_waiting_seconds()[2] == 1200.0
        assert metrics.admission_rate_percent()[2] == 100.0

    def test_unadmitted_class_reports_nan(self, collector):
        metrics = RunMetrics(collector.to_dict())
        assert math.isnan(metrics.mean_rejections_before_admission()[1])
        assert math.isnan(metrics.admission_rate_percent()[1])

    def test_reminders_exported_by_class(self, collector):
        collector.reminders_left[1] += 2
        assert RunMetrics(collector.to_dict()).reminders_left == {
            1: 2, 2: 0, 3: 0, 4: 0
        }


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
        collector.first_requests[1] += 1
        collector.sample_rates(7200.0)
        assert len(collector.admission_rate_series[1]) == 1
        assert collector.admission_rate_series[2] == []
        assert collector.overall_admission_rate_series[0].value == 0.0

    def test_rate_values_are_percentages(self, collector):
        collector.first_requests[1] += 4
        collector.admitted[1] += 1
        collector.sample_rates(3600.0)
        assert collector.admission_rate_series[1][-1].value == 25.0

    def test_favored_sampling_averages_per_class(self, collector):
        # class 1: levels 1, 2 and 3; class 3: one at 4; classes 2 and 4:
        # no supplier (the sums are indexed by class, index 0 unused)
        collector.sample_favored(10800.0, [0, 6, 0, 4, 0], {1: 3, 2: 0, 3: 1, 4: 0})
        assert collector.favored_series[1][0].value == 2.0
        assert collector.favored_series[3][0].value == 4.0
        assert collector.favored_series[2] == []  # no suppliers -> no sample
        assert collector.favored_series[4] == []


class TestExport:
    def test_to_dict_roundtrips_series(self, collector, ladder):
        ledger = CapacityLedger(ladder)
        ledger.add_supplier(1)
        collector.sample_capacity(0.0, ledger)
        collector.first_requests[1] += 1
        collector.admitted[1] += 1
        collector.sample_rates(3600.0)
        dump = collector.to_dict()
        assert dump["capacity_series"] == [(0.0, 0.0)]
        assert dump["admitted"][1] == 1
        assert dump["admission_rate_series"][1] == [(1.0, 100.0)]

    def test_final_capacity_empty_series(self, collector):
        assert RunMetrics(collector.to_dict()).final_capacity() == 0.0


#: (scenario, config overrides): every admission policy, probe loss,
#: Chord, graceful and mid-stream departures under both recovery ends,
#: and the two population scenarios that subscribe a probe subset
COUNTER_RUNS = [
    ("paper_default", {"protocol": "dac"}),
    ("paper_default", {"protocol": "ndac"}),
    ("paper_default", {"protocol": "dac-linear-elevation"}),
    ("heavy_churn", {}),
    ("flaky_network", {}),
    ("chord_overlay", {}),
    ("flash_departure", {"lifecycle_recovery": "resume"}),
    ("flash_departure", {"lifecycle_recovery": "abandon"}),
    ("metropolis_100k", {}),
    ("unstable_suppliers_100k", {}),
]


@pytest.mark.parametrize(
    "name, overrides",
    COUNTER_RUNS,
    ids=[
        "-".join([name, *map(str, overrides.values())])
        for name, overrides in COUNTER_RUNS
    ],
)
def test_counters_equal_the_engines_columns(name, overrides):
    """Every per-class counter and admission sum the engine bumps equals
    the same figure summed over its per-peer columns, whatever the run
    subscribes."""
    config = get_scenario(name).build_config(scale=0.02).replace(**overrides)
    engine = ArrayEngine(config)
    metrics = engine.run()
    peers = engine.peers
    assert sum(metrics.admitted.values()) > 0
    for peer_class in engine.ladder.classes:
        members = [
            pid for pid in range(len(peers)) if peers.peer_class[pid] == peer_class
        ]
        requested = [
            pid for pid in members if peers.first_request_time[pid] is not None
        ]
        admitted = [
            pid for pid in requested if not math.isnan(peers.admitted_time[pid])
        ]
        assert metrics.first_requests[peer_class] == len(requested)
        assert metrics.admitted[peer_class] == len(admitted)
        assert metrics.rejections[peer_class] == sum(
            peers.rejections[pid] for pid in members
        )
        assert metrics.supplier_departures[peer_class] == sum(
            peers.departures[pid] for pid in members
        )
        assert metrics.rejections_before_admission_sum[peer_class] == sum(
            peers.rejections[pid] for pid in admitted
        )
        assert metrics.suppliers_per_session_sum[peer_class] == sum(
            peers.num_suppliers_served_by[pid] for pid in admitted
        )
        assert metrics.buffering_delay_slots_sum[peer_class] == sum(
            peers.buffering_delay_slots[pid] for pid in admitted
        )
        # the engine adds the waits in admission order, not in peer order
        assert metrics.waiting_seconds_sum[peer_class] == pytest.approx(
            math.fsum(
                peers.admitted_time[pid] - peers.first_request_time[pid]
                for pid in admitted
            ),
            rel=1e-9,
        )
