"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scale == 0.1
        assert args.pattern is None  # resolves to pattern 2 / paper_default
        assert args.scenario is None
        assert args.protocol is None  # resolves to the scenario's (dac)


class TestCommands:
    def test_assignment_command(self, capsys):
        assert main(["assignment", "1", "2", "3", "3"]) == 0
        out = capsys.readouterr().out
        assert "OTS_p2p (optimal): buffering delay 4 x dt" in out
        assert "contiguous (Assignment I): buffering delay 5 x dt" in out

    def test_assignment_command_rejects_infeasible(self, capsys):
        assert main(["assignment", "1", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_patterns_command(self, capsys):
        assert main(["patterns", "--peers", "500"]) == 0
        out = capsys.readouterr().out
        for pattern_id in (1, 2, 3, 4):
            assert f"Arrival pattern {pattern_id}" in out

    def test_run_command_small(self, capsys):
        assert main(["run", "--scale", "0.004", "--pattern", "1"]) == 0
        out = capsys.readouterr().out
        assert "avg rejections" in out
        assert "capacity" in out

    def test_run_with_figures(self, capsys):
        code = main(
            ["run", "--scale", "0.004", "--pattern", "1", "--figures"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out and "Figure 6" in out

    def test_experiment_listing(self, capsys):
        assert main(["experiment"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "table1" in out

    def test_experiment_fig1(self, capsys):
        assert main(["experiment", "fig1"]) == 0
        assert "Assignment I" in capsys.readouterr().out

    def test_experiment_unknown_id(self, capsys):
        assert main(["experiment", "fig99", "--scale", "0.004"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_scenarios_command_lists_registry(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "paper_default" in out
        assert "flash_crowd" in out
        assert "heavy_churn" in out

    def test_run_with_scenario(self, capsys):
        assert main(["run", "--scale", "0.004", "--scenario", "heavy_churn"]) == 0
        assert "capacity" in capsys.readouterr().out

    def test_pattern_overrides_scenario(self, capsys):
        code = main(
            ["run", "--scale", "0.004", "--scenario", "heavy_churn",
             "--pattern", "1"]
        )
        assert code == 0
        assert "pattern 1" in capsys.readouterr().out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scenario", "nope"])

    def test_run_with_custom_seed_and_protocol(self, capsys):
        code = main(
            ["run", "--scale", "0.004", "--seed", "99", "--protocol", "ndac"]
        )
        assert code == 0
        assert "ndac" in capsys.readouterr().out


class TestPerfAndProfiling:
    def test_perf_command_reports_reference_and_workload(self, capsys):
        assert main(["perf", "--scale", "0.004", "--scenario", "quickstart"]) == 0
        out = capsys.readouterr().out
        assert "events/sec" in out
        assert "reference" in out
        assert "workload" in out

    def test_perf_no_reference(self, capsys):
        assert main(["perf", "--scale", "0.004", "--no-reference"]) == 0
        out = capsys.readouterr().out
        assert "reference" not in out
        assert "workload" in out

    def test_run_with_probes(self, capsys):
        assert main([
            "run", "--scale", "0.004", "--probes", "capacity", "table1",
        ]) == 0
        assert "capacity" in capsys.readouterr().out

    def test_run_profile_prints_top_entries(self, capsys):
        assert main(["run", "--scale", "0.004", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile (top 25 by cumulative time):" in out
        assert "cumtime" in out

    def test_study_profile(self, capsys):
        assert main(["study", "--scale", "0.004", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "study: 1 runs" in out
        assert "profile (top 25 by cumulative time):" in out

    def test_unknown_probe_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--probes", "nonexistent"])


class TestProbesParsing:
    """``--probes`` accepts space- and comma-separated name lists."""

    def test_comma_separated_probes_parse(self):
        args = build_parser().parse_args(
            ["run", "--probes", "capacity,table1"]
        )
        assert args.probes == [["capacity", "table1"]]

    def test_mixed_space_and_comma_tokens_parse(self):
        args = build_parser().parse_args(
            ["run", "--probes", "capacity", "table1,waiting"]
        )
        assert args.probes == [["capacity"], ["table1", "waiting"]]

    def test_comma_separated_probes_reach_the_config(self, capsys):
        assert main([
            "run", "--scale", "0.004", "--probes", "capacity,table1",
        ]) == 0
        assert "capacity" in capsys.readouterr().out

    def test_unknown_probe_in_comma_list_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--probes", "capacity,nonexistent"]
            )

    def test_empty_comma_token_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--probes", ","])


class TestLifecycleFlags:
    def test_lifecycle_flag_selects_the_model(self, capsys):
        assert main([
            "run", "--scale", "0.004", "--lifecycle", "flash",
        ]) == 0
        assert "lifecycle=flash/resume" in capsys.readouterr().out

    def test_recovery_flag_selects_the_mode(self, capsys):
        assert main([
            "run", "--scale", "0.004", "--lifecycle", "onoff",
            "--recovery", "restart",
        ]) == 0
        assert "lifecycle=onoff/restart" in capsys.readouterr().out

    def test_lifecycle_scenario_runs(self, capsys):
        assert main([
            "run", "--scenario", "flash_departure", "--scale", "0.02",
        ]) == 0
        assert "lifecycle=flash/resume" in capsys.readouterr().out

    def test_unknown_lifecycle_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--lifecycle", "meteor"])

    def test_lifecycle_is_sweepable(self, capsys):
        assert main([
            "study", "--scale", "0.004", "--scenario", "flash_departure",
            "--sweep", "lifecycle_flash_fraction", "0.1", "0.5",
        ]) == 0
        assert "study: 2 runs" in capsys.readouterr().out


class TestStudyCommand:
    def test_study_grid_with_aggregates(self, capsys):
        code = main(
            ["study", "--scale", "0.004", "--pattern", "1",
             "--protocols", "dac", "ndac", "--seeds", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "study: 4 runs" in out
        assert "mean ± 95% CI" in out

    def test_study_sweep_axis(self, capsys):
        code = main(
            ["study", "--scale", "0.004", "--pattern", "1",
             "--sweep", "probe_candidates", "4", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "study: 2 runs" in out
        assert "probe_candidates=4" in out

    def test_probes_sweep_runs_one_subscription_per_value(
        self, capsys, tmp_path
    ):
        # a sweep value is one comma-separated subscription, as --probes takes
        argv = ["study", "--scale", "0.004",
                "--sweep", "probes", "capacity", "capacity,table1",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "study: 2 runs" in out
        assert "probes=('capacity',)" in out
        assert "probes=('capacity', 'table1')" in out
        # both specs are served from the store the second time
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()
        assert sum(row.endswith(" cache") for row in rows) == 2

    def test_class_count_sweep_takes_a_dict_per_value(self, capsys):
        code = main(["study", "--scale", "0.004", "--seeds", "2",
                     "--sweep", "requesting_peers", "{1: 5, 2: 5}",
                     "{1: 10, 2: 10}"])
        assert code == 0
        out = capsys.readouterr().out
        assert "study: 4 runs" in out
        # the seed aggregates group by the dict and print it as the table does
        assert "  requesting_peers={1: 5, 2: 5}: " in out
        assert "  requesting_peers={1: 10, 2: 10}: " in out

    def test_class_count_sweep_prints_only_the_populated_classes(self, capsys):
        code = main(["study", "--scale", "0.02", "--seeds", "2",
                     "--sweep", "requesting_peers", "{1: 50, 2: 50}",
                     "{1: 100, 2: 100}"])
        assert code == 0
        out = capsys.readouterr().out
        section = out[out.index("rejections before admission across seeds"):]
        assert "class 1" in section and "class 2" in section
        assert "class 3" not in section and "class 4" not in section
        assert "nan" not in section

    @pytest.mark.parametrize("value", ["5", "{1: x}", "{1: 5.5}"])
    def test_class_count_sweep_rejects_other_values(self, capsys, value):
        code = main(["study", "--scale", "0.004",
                     "--sweep", "requesting_peers", value])
        assert code == 2
        assert f"value {value!r} is not a dict" in capsys.readouterr().err

    def test_study_export_and_cache(self, capsys, tmp_path):
        out_base = str(tmp_path / "records")
        cache_dir = str(tmp_path / "cache")
        argv = ["study", "--scale", "0.004", "--pattern", "1",
                "--export", "json", "--export", "csv", "--out", out_base,
                "--cache-dir", cache_dir]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "source" in out and "run" in out
        json_path = tmp_path / "records.json"
        csv_path = tmp_path / "records.csv"
        assert json.loads(json_path.read_text())["schema"] == "repro.study.v1"
        assert csv_path.read_text().startswith("spec_hash,")
        # Second invocation is served from the cache directory.
        assert main(argv) == 0
        assert "cache" in capsys.readouterr().out

    def test_study_rejects_unknown_sweep_parameter(self, capsys):
        code = main(
            ["study", "--scale", "0.004", "--sweep", "nonexistent_knob", "4"]
        )
        assert code == 2
        assert "probe_candidates" in capsys.readouterr().err

    def test_study_protocols_with_export(self, capsys, tmp_path):
        out_base = str(tmp_path / "cmp")
        code = main(
            ["study", "--scale", "0.004", "--pattern", "1",
             "--protocols", "dac", "ndac", "--export", "json", "--out", out_base]
        )
        assert code == 0
        payload = json.loads((tmp_path / "cmp.json").read_text())
        assert payload["count"] == 2

    def test_study_seeds_with_cache_dir(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = ["study", "--scale", "0.004", "--pattern", "1",
                "--seeds", "2", "--cache-dir", cache_dir]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert second.count("cache") >= 2
        # the seed aggregates come out the same when served from the store
        assert first[first.index("final capacity across seeds"):] == (
            second[second.index("final capacity across seeds"):]
        )


class TestStudyPaperArtifacts:
    """``study`` prints the paper figure or table its grid's axes imply."""

    @pytest.mark.parametrize("axis", [
        ["--protocols", "dac", "ndac"],
        ["--sweep", "protocol", "dac", "ndac"],
    ])
    def test_protocol_axis_prints_figure4_and_table1(self, capsys, axis):
        assert main(["study", "--scale", "0.02", *axis]) == 0
        out = capsys.readouterr().out
        assert "Figure 4 — system capacity amplification (arrival pattern 2)" in out
        assert "Table 1 — per-class average rejections" in out
        assert "dac: final capacity" in out and "ndac: final capacity" in out

    def test_protocol_axis_prints_figure4_per_arrival_pattern(self, capsys):
        assert main([
            "study", "--scale", "0.004", "--protocols", "dac", "ndac",
            "--sweep", "arrival_pattern", "1", "3", "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "(arrival pattern 1)" in out and "(arrival pattern 3)" in out
        assert out.count("Table 1") == 1
        assert "Pattern 1" in out and "Pattern 3" in out

    def test_table1_needs_dac_and_ndac(self, capsys):
        assert main([
            "study", "--scale", "0.004", "--protocols", "dac", "dac-no-reminder",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "dac-no-reminder" in out
        assert "Table 1" not in out

    def test_e_bkf_sweep_prints_figure9(self, capsys):
        assert main([
            "study", "--scale", "0.004", "--pattern", "1",
            "--sweep", "e_bkf", "1", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "E_bkf=1" in out and "E_bkf=2" in out

    @pytest.mark.parametrize("parameter, label, values", [
        ("probe_candidates", "M", ["4", "8"]),
        ("t_out_seconds", "T_out", ["600", "1200"]),
    ])
    def test_sweep_prints_figure8(self, capsys, parameter, label, values):
        assert main([
            "study", "--scale", "0.004", "--pattern", "1",
            "--sweep", parameter, *values,
        ]) == 0
        out = capsys.readouterr().out
        assert f"Figure 8 — impact of {label}" in out
        assert f"{label}={values[0]}" in out

    def test_other_sweeps_print_no_figure(self, capsys):
        assert main([
            "study", "--scale", "0.004", "--sweep", "t_bkf_seconds", "300", "600",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure" not in out and "Table 1" not in out

    def test_seeds_print_per_class_rejection_cis(self, capsys):
        assert main(["study", "--scale", "0.02", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "final capacity across seeds (mean ± 95% CI):" in out
        section = out[out.index("rejections before admission across seeds"):]
        for peer_class in (1, 2, 3, 4):
            assert f"class {peer_class}" in section
        row = next(line for line in section.splitlines() if line.startswith("all runs"))
        assert row.count("±") == 4 and "nan" not in row


class TestStudySharding:
    GRID = ["--scale", "0.004", "--pattern", "1", "--seeds", "2"]

    def test_shard_merge_status_round_trip(self, capsys, tmp_path):
        shards = [str(tmp_path / f"shard{i}") for i in range(2)]
        for index, store in enumerate(shards):
            code = main(["study", "shard", *self.GRID, "--store", store,
                         "--slice", f"{index}/2", "--owner", f"host{index}"])
            assert code == 0
            assert "1/1 executed" in capsys.readouterr().out
        merged = str(tmp_path / "merged")
        assert main(["study", "merge", "--into", merged, *shards]) == 0
        assert "2 copied" in capsys.readouterr().out
        assert main(["study", "status", *self.GRID, "--store", merged]) == 0
        out = capsys.readouterr().out
        assert "2 done" in out and "0 pending of 2 specs" in out
        # The merged store serves the whole grid from cache: the study
        # command recomputes nothing and reports every run as cached.
        assert main(["study", *self.GRID, "--cache-dir", merged]) == 0
        out = capsys.readouterr().out
        assert "study: 2 runs" in out
        assert out.count("cache") >= 2

    def test_shard_rejects_malformed_slice(self, capsys):
        code = main(["study", "shard", "--store", "ignored",
                     "--slice", "2of2"])
        assert code == 2
        assert "I/N" in capsys.readouterr().err

    def test_shard_rejects_out_of_range_slice(self, capsys):
        code = main(["study", "shard", "--store", "ignored",
                     "--slice", "2/2"])
        assert code == 2
        assert "0 <= I < N" in capsys.readouterr().err

    def test_shard_rejects_an_unknown_protocol_before_claiming(
        self, capsys, tmp_path
    ):
        store = tmp_path / "store"
        code = main(["study", "shard", "--scale", "0.02",
                     "--protocols", "dac", "bogus", "--store", str(store)])
        assert code == 2
        assert "unknown admission policy 'bogus'" in capsys.readouterr().err
        assert not list(store.rglob("*.json"))

    def test_status_without_grid_flags_reports_store_only(
        self, capsys, tmp_path
    ):
        store = str(tmp_path / "store")
        assert main(["study", "shard", *self.GRID, "--store", store,
                     "--slice", "0/1"]) == 0
        capsys.readouterr()
        assert main(["study", "status", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "2 done" in out and "pending" not in out

    def test_resume_completes_a_partial_store(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        # First worker executes only its slice, leaving the grid half done.
        assert main(["study", "shard", *self.GRID, "--store", store,
                     "--slice", "0/2"]) == 0
        capsys.readouterr()
        # A plain cached run serves that half and runs only the rest.
        assert main(["study", *self.GRID, "--cache-dir", store]) == 0
        out = capsys.readouterr().out
        assert "study: 2 runs" in out
        sources = [line.split()[-1] for line in out.splitlines()
                   if line.split()[-1:] in (["cache"], ["run"])]
        assert sorted(sources) == ["cache", "run"]
        assert main(["study", "status", *self.GRID, "--store", store]) == 0
        assert "0 pending" in capsys.readouterr().out

    def test_merge_refuses_missing_sources_and_creates_nothing(
        self, capsys, tmp_path
    ):
        real = tmp_path / "real"
        real.mkdir()
        into = tmp_path / "dest"
        missing = [tmp_path / "nosuch1", tmp_path / "nosuch2"]
        code = main(["study", "merge", "--into", str(into), str(real),
                     *map(str, missing)])
        assert code == 2
        assert str(missing[0]) in capsys.readouterr().err
        assert not into.exists()
        assert not any(path.exists() for path in missing)

    def test_status_writes_nothing_into_the_store(self, capsys, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        assert main(["study", "status", *self.GRID, "--store", str(store)]) == 0
        assert "2 pending of 2 specs" in capsys.readouterr().out
        assert list(store.iterdir()) == []

    def test_status_refuses_a_missing_store_and_creates_nothing(
        self, capsys, tmp_path
    ):
        typo = tmp_path / "typo"
        code = main(["study", "status", "--store", str(typo)])
        assert code == 2
        assert str(typo) in capsys.readouterr().err
        assert not typo.exists()
