"""The paired-revision benchmark runner, fed canned ``perfbench/run.py``
output instead of running it."""

import io
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import bench_pairs  # noqa: E402


def canned(events_per_s, run_s, correct=True, workload="paper_grid"):
    """What ``run.py --workload W --trace 0`` prints, with these figures
    (the as-measured ones twice the calibrated; peak RSS is never scaled,
    so run.py prints no as-measured figure for it)."""
    figures = {
        "setup_s": (0.1, "s"),
        "events_per_s": (events_per_s, "events/s"),
        "run_s": (run_s, "s"),
        "report_s": (0.001, "s"),
        "peak_rss_mb": (60.5, "MiB"),
    }
    lines = []
    for metric, (value, unit) in figures.items():
        line = f"{workload:<15} {metric:<38} {value:>16.6g} {unit}"
        if metric != "peak_rss_mb":
            line += f"  (as measured: {value * 2:.6g})"
        lines.append(line)
    lines.append(f"{workload:<15} {'failed_ratio':<38} {0:>16.6g} (base: 88 ops)")
    lines.append(json.dumps({
        "correct": correct, "attempted": 88, "failed": 0 if correct else 1,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in figures.items()},
    }))
    return "\n".join(lines) + "\n"


def make_tree(root: Path) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("")
    return root.resolve()


class FakeRunner:
    """Answers each call from a per-side queue and records the order."""

    def __init__(self, roots, outputs):
        self.sides = {root: side for side, root in roots.items()}
        self.outputs = {side: list(queue) for side, queue in outputs.items()}
        self.calls = []

    def __call__(self, root, args):
        side = self.sides[root]
        self.calls.append((side, tuple(args)))
        return self.outputs[side].pop(0)


def test_parse_reads_calibrated_and_measured_figures():
    run = bench_pairs.parse_run(canned(120_000.0, 0.75))
    assert run.correct
    assert run.calibrated["events_per_s"] == 120_000.0
    assert run.measured["events_per_s"] == 240_000.0
    assert run.calibrated["run_s"] == 0.75
    assert run.measured["run_s"] == 1.5
    # no as-measured figure: the one printed is both
    assert run.calibrated["peak_rss_mb"] == run.measured["peak_rss_mb"] == 60.5
    assert set(run.calibrated) == {name for name, _ in bench_pairs.METRICS}


def test_the_metrics_are_the_benchmarks_end_to_end_ones():
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert bench_pairs.METRICS == tuple(
        (metric["name"], metric["better"]) for metric in declared["end_to_end"]
    )


def test_calibrated_figures_come_from_the_verdict():
    text = canned(120_000.0, 0.75).replace(
        '"run_s": {"value": 0.75', '"run_s": {"value": 0.5'
    )
    run = bench_pairs.parse_run(text)
    assert run.calibrated["run_s"] == 0.5
    assert run.measured["run_s"] == 1.5


@pytest.mark.parametrize("stdout", ["", "Traceback (most recent call last):\n"])
def test_a_run_without_a_verdict_is_incorrect(stdout):
    assert not bench_pairs.parse_run(stdout).correct


def test_pairs_alternate_which_side_runs_first(tmp_path):
    roots = {side: make_tree(tmp_path / side) for side in bench_pairs.SIDES}
    outputs = {side: [canned(1e5, 1.0)] * 4 for side in bench_pairs.SIDES}
    runner = FakeRunner(roots, outputs)
    bench_pairs.run_pairs(roots, "megacity", 4, 3, runner, log=io.StringIO())
    assert [side for side, _ in runner.calls] == [
        "parent", "change", "change", "parent",
        "parent", "change", "change", "parent",
    ]
    # no run length: each side's run.py uses the benchmark's own
    assert runner.calls[0][1] == (
        "--workload", "megacity", "--seed", "3", "--trace", "0"
    )


def test_summary_counts_the_pairs_the_change_won(tmp_path):
    parent = [canned(100_000.0 + 1000 * i, 0.80) for i in range(4)]
    change = [canned(v, 0.70) for v in (120_000.0, 121_000.0, 99_000.0, 122_000.0)]
    runs = {
        "parent": [bench_pairs.parse_run(text) for text in parent],
        "change": [bench_pairs.parse_run(text) for text in change],
    }
    text = bench_pairs.summarize("paper_grid", runs)
    lines = text.splitlines()
    at = lines.index("  events_per_s (higher is better)")
    assert lines[at + 1].split()[:2] == ["parent", "101.5k"]
    assert "measured" in lines[at + 1] and "203k" in lines[at + 1]
    assert lines[at + 2].split()[:2] == ["change", "120.5k"]
    # past the parent's IQR, but 3 of 4 pairs is short of nine tenths
    assert lines[at + 3] == "    delta +18.7%, change won 3 of 4 pairs"
    at = lines.index("  run_s (lower is better)")
    assert lines[at + 3] == (
        "    delta -12.5%, change won 4 of 4 pairs, a gain: nine tenths of "
        "the pairs won and the median past the parent's IQR"
    )
    at = lines.index("  peak_rss_mb (lower is better)")
    assert lines[at + 3] == "    delta +0.0%, change won 0 of 4 pairs"


def test_every_pair_won_is_no_gain_within_the_parents_spread():
    parent = [canned(1e5, run_s) for run_s in (0.6, 0.8, 1.0, 1.2)]
    change = [canned(1e5, run_s - 0.01) for run_s in (0.6, 0.8, 1.0, 1.2)]
    runs = {
        "parent": [bench_pairs.parse_run(text) for text in parent],
        "change": [bench_pairs.parse_run(text) for text in change],
    }
    lines = bench_pairs.summarize("megacity", runs).splitlines()
    at = lines.index("  run_s (lower is better)")
    assert lines[at + 3] == "    delta -1.1%, change won 4 of 4 pairs"


def test_main_exits_1_on_an_incorrect_run(tmp_path, capsys):
    roots = {side: make_tree(tmp_path / side) for side in bench_pairs.SIDES}
    outputs = {
        "parent": [canned(1e5, 1.0)] * 2,
        "change": [canned(1e5, 1.0), canned(1e5, 1.0, correct=False)],
    }
    argv = [str(roots["parent"]), str(roots["change"]), "--workload",
            "churn_recovery", "--pairs", "2"]
    assert bench_pairs.main(argv, runner=FakeRunner(roots, outputs)) == 1
    assert "INCORRECT" in capsys.readouterr().err
    outputs["change"][1] = canned(1e5, 1.0)
    assert bench_pairs.main(argv, runner=FakeRunner(roots, outputs)) == 0
    assert "churn_recovery: 2 pairs" in capsys.readouterr().out


def test_a_side_without_the_benchmark_is_refused(tmp_path):
    tree = make_tree(tmp_path / "parent")
    empty = tmp_path / "change"
    empty.mkdir()
    with pytest.raises(SystemExit) as raised:
        bench_pairs.main([str(tree), str(empty), "--workload", "megacity"],
                         runner=lambda root, args: "")
    assert raised.value.code == 2
