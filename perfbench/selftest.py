"""The benchmark's own tests.

    python3 perfbench/selftest.py        # about 20 seconds

They show that a wrong pin is reported as a failed operation, that a
second seed passes every check with fingerprints of its own, that
timings scale against the host's speed, that the tracer ships spans
back from pool workers and skips targets that are gone, that the traced
megacity run bypasses the layers it should, and that ``BENCHMARK.json``
agrees with the code.  The file name keeps the
suite out of the repository's own pytest run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def temp_dir(test: unittest.TestCase) -> Path:
    """A fresh directory under the benchmark's output directory."""
    run.OUTPUT.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUTPUT))
    test.addCleanup(shutil.rmtree, path, ignore_errors=True)
    return path


class BenchmarkFile(unittest.TestCase):
    """``BENCHMARK.json`` names what the code reports."""

    def setUp(self) -> None:
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def test_metrics_and_units_match_the_code(self) -> None:
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
            list(metrics.END_TO_END),
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.spec["per_layer"]],
            list(metrics.PER_LAYER),
        )

    def test_workloads_command_and_length_match_the_code(self) -> None:
        self.assertEqual(
            [w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS)
        )
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.spec["run_seconds"], run.RUN_SECONDS)

    def test_setup_has_the_largest_bound(self) -> None:
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(max(bounds.values()), 0.25)


class Pins(unittest.TestCase):
    """Fingerprint pins and the checks that use them."""

    def test_pins_cover_every_workload_at_the_default_seed(self) -> None:
        pins = checks.load_pins()
        self.assertEqual(pins["seed"], workloads.DEFAULT_SEED)
        for name in workloads.WORKLOADS:
            self.assertIn(name, pins)
        expected = {
            f"{protocol}/p{pattern}/s{seed}"
            for protocol in workloads.GRID_PROTOCOLS
            for pattern in workloads.GRID_PATTERNS
            for seed in workloads.grid_seeds(workloads.DEFAULT_SEED)
        }
        self.assertEqual(set(pins["paper_grid"]), expected)

    def test_wrong_pin_is_reported_as_a_failed_operation(self) -> None:
        pins = dict(checks.load_pins(), churn_recovery="0" * 64)
        outcome = workloads.Outcome()
        workload = workloads.make(
            "churn_recovery", workloads.DEFAULT_SEED, outcome, pins, temp_dir(self)
        )
        workload.cycle("c0")
        self.assertEqual((outcome.attempted, outcome.failed), (1, 1))
        self.assertIn("does not match the pin", outcome.failures[0])

    def test_second_seed_passes_with_fingerprints_of_its_own(self) -> None:
        outcome = workloads.Outcome()
        grid = workloads.make(
            "paper_grid", workloads.DEFAULT_SEED + 1, outcome,
            checks.load_pins(), temp_dir(self),
        )
        grid.cycle("c0")
        self.assertEqual(outcome.failures, [])
        # 8 cold specs, then per warm pass 8 warm specs and the export
        per_cycle = 8 + workloads.WARM_PASSES * (8 + 1)
        self.assertEqual(outcome.attempted, per_cycle)
        pinned = set(checks.load_pins()["paper_grid"].values())
        self.assertFalse(pinned & set(grid.fingerprints.first.values()))

    def test_fingerprint_check_rules(self) -> None:
        pin = {"k": "a" * 64}
        at_default = checks.FingerprintCheck(pin, at_default_seed=True)
        self.assertEqual(at_default.problems("k", "a" * 64), [])
        # off the pin (and off the first fingerprint of the process)
        self.assertTrue(at_default.problems("k", "b" * 64))
        elsewhere = checks.FingerprintCheck(pin, at_default_seed=False)
        self.assertEqual(elsewhere.problems("k", "c" * 64), [])
        # a repeat that does not reproduce the first fingerprint
        self.assertTrue(elsewhere.problems("k", "d" * 64))
        # another seed that reproduces the pin never reached the program
        self.assertTrue(
            checks.FingerprintCheck(pin, at_default_seed=False).problems("k", "a" * 64)
        )


class Scaling(unittest.TestCase):
    """Timings are scaled to the reference host."""

    def test_times_and_rates_scale_against_the_host_speed(self) -> None:
        outcome = workloads.Outcome()
        outcome.sample("run_s", 2.0)
        outcome.sample("events_per_s", 100.0)
        # the calibration unit took twice the reference: a host half as fast
        outcome.scale({}, 2 * calibration.REFERENCE_S)
        self.assertEqual(outcome.samples, {"run_s": [1.0], "events_per_s": [200.0]})
        self.assertEqual(outcome.raw, {"run_s": [2.0], "events_per_s": [100.0]})
        outcome.sample("run_s", 4.0)
        outcome.scale({"run_s": 1, "events_per_s": 1}, calibration.REFERENCE_S)
        self.assertEqual(outcome.samples["run_s"], [1.0, 4.0])


class Tracing(unittest.TestCase):
    """Spans, self time, worker shipping and missing targets."""

    def test_self_time_is_duration_minus_children(self) -> None:
        tracer = tracing.Tracer()

        def leaf() -> None:
            time.sleep(0.01)

        traced_leaf = tracer._wrap("network.transport", leaf)

        def outer() -> None:
            traced_leaf()
            traced_leaf()
            time.sleep(0.01)

        tracer._wrap("network.lookup", outer)()
        cols = tracer.columns()
        stats = tracer.layer_stats()
        self.assertEqual(stats["network.lookup"]["calls"], 1)
        self.assertEqual(stats["network.transport"]["calls"], 2)
        lookup = stats["network.lookup"]
        self.assertAlmostEqual(
            lookup["self_s"],
            lookup["total_s"] - stats["network.transport"]["total_s"],
            places=9,
        )
        self.assertEqual(list(cols["parent"]), [-1, 0, 0])

    def test_a_call_nested_in_its_own_layer_is_part_of_it(self) -> None:
        tracer = tracing.Tracer()
        send = tracer._wrap("network.transport", lambda: None)

        def round_trip() -> None:
            send()
            send()

        tracer._wrap("network.transport", round_trip)()
        send()
        self.assertEqual(tracer.layer_stats()["network.transport"]["calls"], 2)

    def test_missing_target_records_nothing(self) -> None:
        saved = tracing.TARGETS
        tracing.TARGETS = saved + (
            ("simulation.dispatch", "repro.simulation.system", "GoneEngine.run"),
            ("simulation.dispatch", "repro.no_such_module", "Engine.run"),
        )
        try:
            tracer = tracing.Tracer()
            tracer.install(("simulation.dispatch",))
            tracer.uninstall()
        finally:
            tracing.TARGETS = saved
        self.assertEqual(
            tracer.missing,
            ["repro.simulation.system:GoneEngine.run",
             "repro.no_such_module:Engine.run"],
        )
        self.assertEqual(len(tracer.start), 0)

    def test_pool_worker_spans_come_back_to_the_parent(self) -> None:
        import repro

        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.begin_cycle("c0")
            study = repro.Study.from_scenario("quickstart", scale=0.02).protocols(
                "dac", "ndac"
            )
            study.run(jobs=2)
        finally:
            tracer.uninstall()
        stats = tracer.layer_stats()
        self.assertEqual(stats["orchestration.batch"]["calls"], 1)
        self.assertEqual(stats["simulation.run"]["calls"], 2)
        self.assertEqual(stats["orchestration.record"]["calls"], 2)
        self.assertGreater(stats["network.transport"]["calls"], 0)
        cols = tracer.columns()
        runs = cols["layer"] == tracer.layers.index("simulation.run")
        batch = tracer.layers.index("orchestration.batch")
        self.assertTrue(all(cols["layer"][cols["parent"][runs]] == batch))
        self.assertTrue(all(cols["duration"] >= 0))

    def test_tail_percentile_keeps_ten_samples_beyond(self) -> None:
        self.assertIsNone(tracing.tail_percentile(19))
        self.assertEqual(tracing.tail_percentile(20), 50.0)
        self.assertEqual(tracing.tail_percentile(100), 90.0)
        self.assertEqual(tracing.tail_percentile(1000), 99.0)
        self.assertEqual(tracing.tail_percentile(10000), 99.9)
        self.assertEqual(tracing.percentile([1, 2, 3, 4], 50.0), 2.0)

    def test_traced_megacity_bypasses_lookup_transport_lifecycle_and_orchestration(
        self,
    ) -> None:
        outcome = workloads.Outcome()
        workload = workloads.make(
            "megacity", workloads.DEFAULT_SEED, outcome, checks.load_pins(),
            temp_dir(self),
        )
        tracer = tracing.Tracer()
        tracer.install()
        workload.tracer = tracer
        try:
            tracer.begin_cycle("c0")
            workload.cycle("c0")
        finally:
            tracer.uninstall()
        self.assertEqual(outcome.failures, [])
        stats = tracer.layer_stats()
        for layer in ("network.lookup", "network.transport", "simulation.lifecycle"):
            self.assertEqual(stats[layer]["calls"], 0, layer)
        for layer, layer_stats in stats.items():
            if layer.startswith("orchestration."):
                self.assertEqual(layer_stats["calls"], 0, layer)
        self.assertEqual(stats["simulation.dispatch"]["calls"], 1)
        self.assertGreater(stats["simulation.probes"]["calls"], 0)


class Command(unittest.TestCase):
    """How the benchmark behaves as a program."""

    def test_without_the_package_it_exits_nonzero_and_prints_no_result(self) -> None:
        bare = temp_dir(self)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "megacity",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(completed.returncode, 0)
        self.assertEqual(completed.stdout, "")


if __name__ == "__main__":
    unittest.main()
