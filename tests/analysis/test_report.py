"""Unit tests for the paper figure/table renderers."""

import pytest

from repro.analysis import report
from repro.simulation.config import SimulationConfig
from repro.orchestration.study import Study


@pytest.fixture(scope="module")
def results():
    config = SimulationConfig(
        seed_suppliers={1: 4},
        requesting_peers={1: 10, 2: 10, 3: 40, 4: 40},
        arrival_pattern=2,
        master_seed=5,
    )
    runs = Study.from_config(config).protocols("dac", "ndac").run()
    return {record.protocol: record.result for record in runs}


class TestFigure1:
    def test_mentions_both_assignments_and_delays(self):
        text = report.figure1_report()
        assert "Assignment I" in text
        assert "5 x dt" in text and "4 x dt" in text
        assert "OTS_p2p" in text


class TestSimulationReports:
    def test_figure4_has_chart_and_final_capacities(self, results):
        text = report.figure4_report(results, pattern=2)
        assert "Figure 4" in text
        assert "dac" in text and "ndac" in text
        assert "% " in text or "%)" in text

    def test_figure5_lists_all_classes(self, results):
        text = report.figure5_report(results["dac"], label="dac")
        for c in (1, 2, 3, 4):
            assert f"class {c}" in text

    def test_figure6_reports_delays(self, results):
        text = report.figure6_report(results["dac"], label="dac")
        assert "buffering delay" in text
        assert "final:" in text

    def test_table1_formats_dac_slash_ndac(self, results):
        keyed = {("dac", 2): results["dac"], ("ndac", 2): results["ndac"]}
        text = report.table1_report(keyed)
        assert "Class 1" in text and "Class 4" in text
        assert "/" in text

    def test_table1_with_paper_values(self, results):
        keyed = {("dac", 2): results["dac"], ("ndac", 2): results["ndac"]}
        paper = {(c, 2): (1.0, 2.0) for c in (1, 2, 3, 4)}
        text = report.table1_report(keyed, paper_values=paper)
        assert "paper P2" in text

    def test_figure7_renders_when_series_exist(self, results):
        text = report.figure7_report(results["dac"])
        assert "Figure 7" in text

    def test_figure8_and_9_sweeps(self):
        config = SimulationConfig(
            seed_suppliers={1: 4},
            requesting_peers={1: 10, 2: 10, 3: 40, 4: 40},
            master_seed=5,
        )
        runs_m = Study.from_config(config).sweep("probe_candidates", [4, 8]).run()
        sweep_m = {r.axis("probe_candidates"): r for r in runs_m}
        text8 = report.figure8_report(sweep_m, parameter_label="M")
        assert "M=4" in text8 and "M=8" in text8
        runs_e = Study.from_config(config).sweep("e_bkf", [1.0, 2.0]).run()
        text9 = report.figure9_report({r.axis("e_bkf"): r for r in runs_e})
        assert "E_bkf=1" in text9 and "final admission rate" in text9


class TestSampleHours:
    def test_default_covers_horizon(self):
        hours = report.sample_hours()
        assert hours[0] == 0.0 and hours[-1] == 144.0
        assert all(b - a == 12.0 for a, b in zip(hours, hours[1:]))
