"""Smoke tests: every example script runs clean at a tiny scale.

Examples are documentation that executes; these tests keep them from
rotting as the library evolves.  Each runs in a subprocess exactly as a
user would invoke it.
"""

import subprocess
import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def test_every_example_has_a_smoke_test():
    """Adding an example without wiring a test here is a failure, not drift."""
    source = Path(__file__).read_text(encoding="utf-8")
    for script in sorted(EXAMPLES_DIR.glob("*.py")):
        assert script.name in source, (
            f"examples/{script.name} is not exercised by tests/test_examples.py"
        )


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestExamplesRun:
    def test_quickstart(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "buffering delay: 4 slots" in result.stdout
        assert "capacity" in result.stdout

    def test_assignment_playground_default(self):
        result = run_example("assignment_playground.py")
        assert result.returncode == 0, result.stderr
        assert "buffering delay: 5 x dt" in result.stdout
        assert "buffering delay: 4 x dt" in result.stdout

    def test_assignment_playground_custom_classes(self):
        result = run_example("assignment_playground.py", "1", "3", "3", "3", "4", "4")
        assert result.returncode == 0, result.stderr

    def test_assignment_playground_rejects_infeasible(self):
        result = run_example("assignment_playground.py", "1", "2")
        assert result.returncode != 0

    def test_flash_crowd(self):
        result = run_example("flash_crowd.py", "--scale", "0.01")
        assert result.returncode == 0, result.stderr
        assert "Capacity race" in result.stdout

    def test_chord_lookup_demo(self):
        result = run_example("chord_lookup_demo.py")
        assert result.returncode == 0, result.stderr
        assert "mean routing hops" in result.stdout

    def test_incentive_study(self):
        result = run_example("incentive_study.py", "--scale", "0.01")
        assert result.returncode == 0, result.stderr
        assert "hiding bandwidth" in result.stdout.lower()

    def test_trace_analysis(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        result = run_example(
            "trace_analysis.py", "--scale", "0.01", "--save", str(trace_path)
        )
        assert result.returncode == 0, result.stderr
        assert "audit ok" in result.stdout
        assert trace_path.exists()

    def test_fluid_vs_simulation(self):
        result = run_example("fluid_vs_simulation.py", "--scale", "0.01")
        assert result.returncode == 0, result.stderr
        assert "fluid envelope" in result.stdout

    def test_lifecycle_recovery(self):
        result = run_example("lifecycle_recovery.py", "--scale", "0.02")
        assert result.returncode == 0, result.stderr
        assert "mid-stream blackout" in result.stdout.lower()
        assert "resume" in result.stdout

    def test_study_grid(self, tmp_path):
        out_dir = tmp_path / "study_out"
        result = run_example(
            "study_grid.py", "--scale", "0.004", "--seeds", "2",
            "--out", str(out_dir),
        )
        assert result.returncode == 0, result.stderr
        assert "identical records: True" in result.stdout
        assert (out_dir / "study.json").exists()
        assert (out_dir / "study.csv").exists()
