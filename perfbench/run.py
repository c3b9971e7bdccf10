"""The repository benchmark: three workloads, checked outputs, one JSON line.

    python3 perfbench/run.py --workload megacity --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py                # every workload, untraced
    python3 perfbench/run.py --trace 1      # every workload, traced

With ``--workload`` the run happens in this interpreter and the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without it, each workload runs in a
fresh interpreter and a table of every metric is printed.  Run it from
anywhere; it finds the package in ``src/`` next to this directory and
writes only under ``.perfbench/`` there.  ``README.md`` explains the
metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import calibration
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: per-run work directories and written-out spans
OUTPUT = ROOT / ".perfbench"
#: seconds one run measures (``run_seconds`` in ``BENCHMARK.json``)
RUN_SECONDS = 40
#: fresh interpreters timed per run; ``setup_s`` is their median
SETUP_PROBES = 7
#: traced cycles per traced run at most: the spans of one grid cycle
#: alone take about 30 MB
TRACED_CYCLES = 2
#: a workload process that takes longer than this has hung
WORKLOAD_TIMEOUT = 180


def python_env() -> dict[str, str]:
    """The environment a child interpreter needs to import the package."""
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    paths = [str(SRC)] + [path for path in inherited if path]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def setup_probes(name: str, seed: int, trace: bool) -> list[dict]:
    """Time ``SETUP_PROBES`` cold set-ups, each in a fresh interpreter."""
    probes = []
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
             "1" if trace else "0"],
            env=python_env(), capture_output=True, text=True, check=True,
            timeout=WORKLOAD_TIMEOUT,
        )
        probes.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    return probes


def traced_values(workload, outcome, setups, name: str, seconds: float) -> dict:
    """One untraced cycle for the overhead baseline, then traced cycles."""
    import metrics
    import tracing

    begin = time.perf_counter()
    baseline = workloads.measure(workload, 0.0)
    tracer = tracing.Tracer()
    tracer.install()
    for layer_target in tracer.missing:
        print(f"perfbench: trace target gone, not recorded: {layer_target}",
              file=sys.stderr)
    workload.tracer = tracer
    for index, probe in enumerate(setups):
        tracer.absorb_setup(f"setup{index}", probe["spans"])
    first_traced = len(outcome.cycles)
    try:
        traced = workloads.measure(
            workload, seconds - (time.perf_counter() - begin), tracer,
            first=1, max_cycles=TRACED_CYCLES,
        )
    finally:
        tracer.uninstall()
        workload.tracer = None
    overhead = (
        metrics.median(traced) / metrics.median(baseline) if baseline else 0.0
    )
    values = metrics.per_layer(
        tracer.layer_stats(), tracer.samples, outcome.cycles[first_traced:],
        setups, overhead, workloads.GRID_JOBS,
    )
    path = tracer.write(OUTPUT / f"spans-{name}.npz")
    print(f"perfbench: {len(tracer.start)} spans written to {path}", file=sys.stderr)
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload here and print its result as the last line."""
    # import (and byte-compile) once, so each set-up probe times a warm-disk
    # import in a fresh interpreter rather than a first compile
    import repro  # noqa: F401
    import repro.analysis.report  # noqa: F401

    import checks
    import metrics

    before_s = calibration.probe()
    setups = setup_probes(name, seed, trace)
    setup_host_s = (before_s + calibration.probe()) / 2
    outcome = workloads.Outcome()
    workdir = OUTPUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(name, seed, outcome, checks.load_pins(), workdir)
        if trace:
            values = traced_values(workload, outcome, setups, name, seconds)
            units = dict(metrics.PER_LAYER)
            measured = values
        else:
            workloads.measure(workload, seconds)
            setup_seconds = [probe["import_s"] + probe["expand_s"] for probe in setups]
            scale = calibration.REFERENCE_S / setup_host_s
            values = metrics.end_to_end(
                outcome.samples, [seconds * scale for seconds in setup_seconds]
            )
            measured = metrics.end_to_end(outcome.raw, setup_seconds)
            units = dict(metrics.END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in outcome.failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    for metric, unit in units.items():
        line = f"{name:<15} {metric:<38} {values[metric]:>16.6g} {unit}"
        if measured[metric] != values[metric]:
            line += f"  (as measured: {measured[metric]:.6g})"
        print(line)
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"{name:<15} {'failed_ratio':<38} {ratio:>16.6g} "
          f"(base: {outcome.attempted} ops)")
    print(json.dumps({
        "correct": outcome.attempted > 0 and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in a fresh interpreter and print one table."""
    ok = True
    for name in workloads.WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "1" if trace else "0"],
            stdout=subprocess.PIPE, text=True, timeout=WORKLOAD_TIMEOUT,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"{name}: exited with code {completed.returncode}")
            ok = False
            continue
        print("\n".join(lines[:-1]))
        ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="run one workload here (default: all, each in "
                             "a fresh interpreter)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="workload seed (default: %(default)s, the pinned one)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="seconds of cycles to measure (default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
