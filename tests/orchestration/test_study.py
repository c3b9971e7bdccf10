"""Tests for the declarative Study builder and its result sets."""

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.orchestration.runspec import RunSpec, config_from_dict, config_to_dict
from repro.orchestration.store import ResultStore
from repro.orchestration.study import RunRecord, Study
from repro.scenarios import get_scenario
from repro.simulation.config import SimulationConfig
from repro.simulation.probes import RunMetrics


def small_config(**overrides):
    defaults = dict(
        seed_suppliers={1: 4},
        requesting_peers={1: 5, 2: 5, 3: 20, 4: 20},
        arrival_pattern=1,
        master_seed=11,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


TINY_POPULATION = dict(
    seed_suppliers={1: 2},
    requesting_peers={1: 2, 2: 2, 3: 8, 4: 8},
)

#: what the figures, tables and exports read off a run's metrics
SERIES = (
    "capacity_series",
    "capacity_fractional_series",
    "supplier_count_series",
    "overall_admission_rate_series",
    "continuity_series",
    "admission_rate_series",
    "buffering_delay_series",
    "favored_series",
)
COUNTERS = (
    "first_requests",
    "requests",
    "rejections",
    "admitted",
    "reminders_left",
    "supplier_departures",
    "supplier_rejoins",
    "interruptions",
    "recovered_sessions",
    "recovery_retries",
    "sessions_lost",
    "interrupted_completions",
    "stall_seconds_sum",
)
DERIVED = (
    "mean_rejections_before_admission",
    "mean_buffering_delay_slots",
    "mean_waiting_seconds",
    "mean_recovery_latency_seconds",
    "playback_continuity_index",
    "admission_rate_percent",
    "final_capacity",
)


def reloaded(record):
    """The record after a JSON round trip, as a store serves it."""
    return RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))


def assert_reads_same(metrics, expected):
    """Every series, counter and derived value reads equal (NaN = NaN)."""

    def same(a, b):
        if isinstance(a, dict):
            return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
        if isinstance(a, list):
            return [(p.hour, p.value) for p in a] == [
                (p.hour, p.value) for p in b
            ]
        return a == b or (math.isnan(a) and math.isnan(b))

    for name in SERIES + COUNTERS:
        assert same(getattr(metrics, name), getattr(expected, name)), name
    for name in DERIVED:
        assert same(getattr(metrics, name)(), getattr(expected, name)()), name


class TestRunSpec:
    def test_hash_is_stable_and_content_sensitive(self):
        config = small_config()
        assert RunSpec(config).spec_hash == RunSpec(config).spec_hash
        changed = RunSpec(config.replace(master_seed=12))
        assert RunSpec(config).spec_hash != changed.spec_hash
        assert len(RunSpec(config).spec_hash) == 64

    def test_hash_ignores_provenance(self):
        config = small_config()
        plain = RunSpec(config)
        labeled = RunSpec(config, scenario="x", axes=(("protocol", "dac"),))
        assert plain.spec_hash == labeled.spec_hash

    def test_config_dict_round_trip(self):
        config = small_config(protocol="ndac", probe_candidates=4)
        assert config_from_dict(config_to_dict(config)) == config


class TestStudyExpansion:
    def test_grid_order_protocols_outer_seeds_inner(self):
        specs = (
            Study.from_config(small_config())
            .protocols("dac", "ndac")
            .seeds(2)
            .specs()
        )
        assert [(s.protocol, s.seed) for s in specs] == [
            ("dac", 11), ("dac", 12), ("ndac", 11), ("ndac", 12),
        ]

    def test_sweep_axis_values_recorded(self):
        specs = (
            Study.from_config(small_config())
            .sweep("probe_candidates", [4, 8])
            .specs()
        )
        assert [dict(s.axes)["probe_candidates"] for s in specs] == [4, 8]
        assert [s.config.probe_candidates for s in specs] == [4, 8]

    def test_scenario_axis(self):
        specs = (
            Study.from_scenarios(["paper_default", "flash_crowd"], scale=0.004)
            .specs()
        )
        assert [s.scenario for s in specs] == ["paper_default", "flash_crowd"]
        assert specs[1].config.arrival_pattern == 3

    def test_override_applies_before_axes(self):
        specs = (
            Study.from_scenario("paper_default", scale=0.1)
            .override(**TINY_POPULATION)
            .protocols("dac")
            .specs()
        )
        assert specs[0].config.requesting_peers == TINY_POPULATION["requesting_peers"]

    def test_explicit_seed_list(self):
        specs = Study.from_config(small_config()).seeds([3, 9]).specs()
        assert [s.seed for s in specs] == [3, 9]

    def test_seed_stride(self):
        specs = Study.from_config(small_config()).seeds(2, stride=10).specs()
        assert [s.seed for s in specs] == [11, 21]


class TestStudyValidation:
    def test_duplicate_protocols_rejected(self):
        with pytest.raises(ConfigurationError):
            Study.from_config(small_config()).protocols("dac", "dac")

    def test_duplicate_sweep_values_rejected(self):
        with pytest.raises(ConfigurationError):
            Study.from_config(small_config()).sweep("probe_candidates", [4, 4])

    def test_unknown_sweep_parameter_lists_valid_fields(self):
        with pytest.raises(ConfigurationError) as excinfo:
            Study.from_config(small_config()).sweep("probe_cadidates", [4])
        assert "probe_candidates" in str(excinfo.value)
        assert "t_out_seconds" in str(excinfo.value)

    def test_master_seed_sweep_redirected_to_seeds(self):
        with pytest.raises(ConfigurationError):
            Study.from_config(small_config()).sweep("master_seed", [1, 2])

    def test_duplicate_axis_rejected(self):
        study = Study.from_config(small_config()).sweep("e_bkf", [1.0])
        with pytest.raises(ConfigurationError):
            study.sweep("e_bkf", [2.0])

    def test_duplicate_scenarios_rejected(self):
        with pytest.raises(ConfigurationError):
            Study.from_scenarios(["constant", "constant"])

    def test_zero_seeds_rejected(self):
        with pytest.raises(ValueError):
            Study.from_config(small_config()).seeds(0)

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigurationError):
            Study.from_config(small_config()).override(nonexistent_knob=9)


class TestStudyRun:
    def test_records_carry_live_results_and_provenance(self):
        result_set = Study.from_config(small_config()).protocols("dac").run()
        record = result_set[0]
        assert record.result is not None
        assert record.protocol == "dac"
        assert record.config == small_config()
        assert record.version.count(".") == 2
        assert record.spec_hash == RunSpec(small_config()).spec_hash

    def test_parallel_records_match_serial_up_to_wall_time(self):
        study = Study.from_config(small_config()).protocols("dac", "ndac")
        serial = study.run(jobs=1)
        parallel = study.run(jobs=2)
        assert [r.fingerprint() for r in serial] == [
            r.fingerprint() for r in parallel
        ]

    @pytest.mark.parametrize(
        "config, interrupts",
        [
            (small_config(), False),
            (get_scenario("flash_departure").build_config(scale=0.02), True),
            # continuity unsubscribed: the engine interrupts and loses
            # sessions, but the result reads zero of each, as its record does
            (
                get_scenario("flash_departure").build_config(
                    scale=0.02, lifecycle_recovery="abandon", probes=("capacity",)
                ),
                False,
            ),
        ],
        ids=["lifecycle-free", "flash", "flash-abandon-capacity-only"],
    )
    def test_live_result_reads_as_its_reloaded_record(self, config, interrupts):
        record = Study.from_config(config).run()[0]
        live = record.result.metrics
        assert_reads_same(reloaded(record).metrics, live)
        assert (sum(live.interruptions.values()) > 0) == interrupts
        assert sum(live.sessions_lost.values()) == 0

    def test_live_and_store_served_metrics_are_one_type(self, tmp_path):
        store = ResultStore(tmp_path)
        study = Study.from_config(small_config())
        fresh = study.run(store=store)[0]
        served = study.run(store=store)[0]
        assert served.result is None
        assert type(fresh.result.metrics) is type(served.metrics) is RunMetrics


class TestRunRecordRoundTrip:
    def test_json_round_trip_preserves_everything(self):
        record = Study.from_config(small_config()).run()[0]
        rebuilt = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert rebuilt.fingerprint() == record.fingerprint()
        assert rebuilt.config == record.config
        assert rebuilt.seed == record.seed
        assert rebuilt.scalars == record.scalars
        assert rebuilt.message_stats == record.message_stats
        assert rebuilt.wall_seconds == record.wall_seconds
        assert rebuilt.result is None

    def test_round_trip_restores_class_keys_as_ints(self):
        record = Study.from_config(small_config()).run()[0]
        rebuilt = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert sorted(rebuilt.metrics.admitted) == [1, 2, 3, 4]
        assert sorted(rebuilt.metrics.admission_rate_series) == [1, 2, 3, 4]

    def test_round_trip_of_a_ten_class_ladder(self):
        # as JSON strings the class keys would sort '1', '10', '2', ...
        config = SimulationConfig(num_classes=10).scaled(0.02)
        record = Study.from_config(config).run()[0]
        rebuilt = reloaded(record)
        assert rebuilt.fingerprint() == record.fingerprint()
        assert list(rebuilt.metrics.admitted) == list(range(1, 11))
        assert_reads_same(rebuilt.metrics, record.metrics)

    def test_fingerprint_ignores_wall_time_only(self):
        record = Study.from_config(small_config()).run()[0]
        import dataclasses

        rewalled = dataclasses.replace(record, wall_seconds=1e9)
        assert rewalled.fingerprint() == record.fingerprint()
        reseeded = dataclasses.replace(
            record, config_data={**record.config_data, "master_seed": 0}
        )
        assert reseeded.fingerprint() != record.fingerprint()


class TestResultSetOperations:
    @pytest.fixture(scope="class")
    def result_set(self):
        return (
            Study.from_config(small_config())
            .protocols("dac", "ndac")
            .seeds(2)
            .run()
        )

    def test_filter_by_axis(self, result_set):
        dac = result_set.filter(protocol="dac")
        assert len(dac) == 2
        assert all(r.protocol == "dac" for r in dac)
        assert len(result_set.filter(protocol="dac", seed=12)) == 1

    def test_filter_by_predicate(self, result_set):
        odd = result_set.filter(lambda r: r.seed % 2 == 1)
        assert all(r.seed % 2 == 1 for r in odd)

    def test_aggregate_collapses_seeds(self, result_set):
        aggregates = result_set.aggregate("final_capacity")
        assert len(aggregates) == 2
        for key, aggregate in aggregates.items():
            assert len(aggregate.samples) == 2
            assert not math.isnan(aggregate.mean)
            assert "±" in str(aggregate)

    def test_aggregate_with_callable_and_by(self, result_set):
        aggregates = result_set.aggregate(
            lambda r: r.metrics.mean_rejections_before_admission()[4],
            by=["protocol"],
        )
        assert set(aggregates) == {
            (("protocol", "dac"),), (("protocol", "ndac"),),
        }

    def test_to_rows_flat_and_labeled(self, result_set):
        rows = result_set.to_rows()
        assert len(rows) == 4
        row = rows[0]
        assert row["protocol"] == "dac"
        assert "final_capacity" in row
        assert "rejections_class_4" in row
        assert "admission_rate_class_1" in row

    def test_to_json_schema(self, result_set, tmp_path):
        path = tmp_path / "out.json"
        text = result_set.to_json(path)
        payload = json.loads(text)
        assert payload["schema"] == "repro.study.v1"
        assert payload["count"] == 4
        assert len(payload["records"]) == 4
        assert path.read_text().strip() == text.strip()

    def test_to_csv_has_header_and_rows(self, result_set, tmp_path):
        path = tmp_path / "out.csv"
        text = result_set.to_csv(path)
        lines = text.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("spec_hash,scenario,protocol,seed")
        assert path.exists()


class TestAcceptanceGrid:
    """The issue's acceptance criterion, end to end."""

    def test_protocols_by_scenarios_by_seeds_with_cache(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "cache")
        study = (
            Study.from_scenarios(["paper_default", "flash_crowd"], scale=0.1)
            .override(**TINY_POPULATION)
            .protocols("dac", "ndac")
            .seeds(3)
        )
        first = study.run(jobs=2, store=store)
        assert len(first) == 12
        assert len(store) == 12

        json_path = tmp_path / "study.json"
        csv_path = tmp_path / "study.csv"
        first.to_json(json_path)
        first.to_csv(csv_path)
        assert json.loads(json_path.read_text())["count"] == 12
        assert len(csv_path.read_text().strip().splitlines()) == 13

        # Second invocation: served entirely from the store — zero
        # simulation calls — and bit-identical to the first records.
        import repro.orchestration.batch as batch

        def explode(config):
            raise AssertionError("cache miss: simulation executed")

        monkeypatch.setattr(batch, "run_simulation", explode)
        second = study.run(jobs=2, store=store)
        assert second.to_json() == first.to_json()
        assert all(record.result is None for record in second)
