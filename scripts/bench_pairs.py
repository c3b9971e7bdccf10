#!/usr/bin/env python3
"""Paired benchmark runs of two revisions of this repository.

    python scripts/bench_pairs.py PARENT CHANGE --workload paper_grid \\
        --pairs 10 --seed 1

``PARENT`` and ``CHANGE`` are each a directory holding a checkout (with
``perfbench/run.py`` and ``src/``) or a git revision of the repository
this script lives in.  A revision is exported with ``git archive`` into a
temporary directory (under ``--scratch``), so the checkout, its refs and
its worktree list stay as they were; the exports are deleted at the end.

For each workload the two sides run ``--pairs`` times, alternating which
side goes first, each run ``perfbench/run.py --workload W --seed K
--trace 0`` of that side in a fresh interpreter, for the run length that
side's ``run.py`` sets.  For every end-to-end metric of ``BENCHMARK.json``
the script prints each side's median and quartiles, as calibrated to the
reference host (run.py's verdict) and as measured (its "as measured"
figures), the change's median delta and the pairs the change won on the
calibrated figure, ties counting for neither.  It calls the change a gain
on a metric only when it won at least nine tenths of the pairs and its
median moved the better way by more than the parent's interquartile
range.

Exit status 0 when every run reported ``correct: true``; 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
#: the end-to-end metrics of ``perfbench/run.py --trace 0``, and which
#: direction is better
METRICS = tuple((m["name"], m["better"]) for m in BENCHMARK["end_to_end"])
SIDES = ("parent", "change")
#: seconds a run may take beyond the benchmark's run length (set-up
#: probes, the last cycle, interpreter start)
RUN_SLACK_SECONDS = 240
#: the share of pairs a change must win for a gain
GAIN_SHARE = 0.9

_MEASURED = re.compile(
    r"^\S+\s+(?P<metric>\S+)\s.*\(as measured: (?P<measured>\S+)\)$"
)


@dataclass
class Run:
    """One run.py invocation: each metric calibrated and as measured."""

    correct: bool
    calibrated: dict[str, float] = field(default_factory=dict)
    measured: dict[str, float] = field(default_factory=dict)


def parse_run(stdout: str) -> Run:
    """Read one ``run.py --workload W --trace 0`` output.

    The last line is run.py's JSON verdict; a run without one (it
    crashed, or timed out) counts as incorrect.
    """
    lines = stdout.strip().splitlines()
    try:
        verdict = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return Run(correct=False)
    run = Run(correct=bool(verdict.get("correct")))
    figures = verdict.get("metrics", {})
    for name, _ in METRICS:
        if name in figures:
            run.calibrated[name] = run.measured[name] = figures[name]["value"]
    for line in lines[:-1]:
        match = _MEASURED.match(line)
        if match is not None and match["metric"] in run.calibrated:
            run.measured[match["metric"]] = float(match["measured"])
    return run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; all three equal for a single value."""
    if len(values) < 2:
        return (values[0],) * 3 if values else (float("nan"),) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value / 1e3:.4g}k"


def summarize(workload: str, runs: dict[str, list[Run]]) -> str:
    """The per-metric table of one workload's pairs."""
    pairs = min(len(runs["parent"]), len(runs["change"]))
    out = [f"{workload}: {pairs} pairs (median [q1-q3]; calibrated, then "
           "as measured)"]
    for metric, better in METRICS:
        columns = {}
        for side in SIDES:
            calibrated = [r.calibrated[metric] for r in runs[side]
                          if metric in r.calibrated]
            measured = [r.measured[metric] for r in runs[side]
                        if metric in r.measured]
            columns[side] = (quartiles(calibrated), quartiles(measured))
        won = 0
        for parent, change in zip(runs["parent"], runs["change"]):
            p, c = parent.calibrated.get(metric), change.calibrated.get(metric)
            if p is not None and c is not None and (
                c > p if better == "higher" else c < p
            ):
                won += 1
        (p1, pm, p3), _ = columns["parent"]
        (_, cm, _), _ = columns["change"]
        delta = (cm - pm) / pm * 100 if pm else float("nan")
        improved = cm > pm if better == "higher" else cm < pm
        gain = (won >= GAIN_SHARE * pairs and improved
                and abs(cm - pm) > p3 - p1)
        out.append(f"  {metric} ({better} is better)")
        for side in SIDES:
            (q1, med, q3), (m1, mmed, m3) = columns[side]
            out.append(
                f"    {side:<7} {_fmt(med):>9} [{_fmt(q1)}-{_fmt(q3)}]"
                f"   measured {_fmt(mmed):>9} [{_fmt(m1)}-{_fmt(m3)}]"
            )
        out.append(
            f"    delta {delta:+.1f}%, change won {won} of {pairs} pairs"
            + (", a gain: nine tenths of the pairs won and the median "
               "past the parent's IQR" if gain else "")
        )
    return "\n".join(out)


Runner = Callable[[Path, list[str]], str]


def subprocess_runner(root: Path, args: list[str], timeout: float) -> str:
    """Run one side's ``perfbench/run.py`` in a fresh interpreter."""
    try:
        completed = subprocess.run(
            [sys.executable, str(root / "perfbench" / "run.py"), *args],
            stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return ""  # no verdict line: counted as incorrect
    return completed.stdout


def run_pairs(
    roots: dict[str, Path],
    workload: str,
    pairs: int,
    seed: int,
    runner: Runner,
    log=None,
) -> dict[str, list[Run]]:
    """``pairs`` runs of each side; pair ``i`` starts with the parent
    when ``i`` is even and with the change when it is odd.  Each run's
    figures are logged as it ends (to standard error by default)."""
    log = log or sys.stderr
    args = ["--workload", workload, "--seed", str(seed), "--trace", "0"]
    runs: dict[str, list[Run]] = {side: [] for side in SIDES}
    for index in range(pairs):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        for side in order:
            run = parse_run(runner(roots[side], args))
            runs[side].append(run)
            shown = " ".join(
                f"{metric}={_fmt(run.calibrated[metric])}"
                for metric, _ in METRICS if metric in run.calibrated
            )
            verdict = "" if run.correct else " INCORRECT"
            print(f"{workload} pair {index + 1} {side}: {shown}{verdict}",
                  file=log, flush=True)
    return runs


def export_revision(revision: str, scratch: Path) -> Path:
    """``git archive`` of ``revision`` unpacked into a new directory."""
    commit = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "rev-parse", "--verify",
         f"{revision}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "archive", "--format=tar", commit],
        capture_output=True, check=True,
    ).stdout
    target = Path(tempfile.mkdtemp(prefix=f"bench-{commit[:10]}-", dir=scratch))
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return target


def main(argv: list[str] | None = None, runner: Runner | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="the baseline: a directory or a git revision")
    parser.add_argument("change", help="the change: a directory or a git revision")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload (repeat for several)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating pairs per workload (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=1,
                        help="run.py's workload seed (default: %(default)s)")
    parser.add_argument("--scratch", type=Path, default=None,
                        help="where revisions are exported (default: the "
                             "system's temporary directory)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    exported: list[Path] = []
    roots: dict[str, Path] = {}
    try:
        for side in SIDES:
            spec = getattr(args, side)
            if Path(spec).is_dir():
                roots[side] = Path(spec).resolve()
            else:
                if args.scratch is not None:
                    args.scratch.mkdir(parents=True, exist_ok=True)
                roots[side] = export_revision(spec, args.scratch)
                exported.append(roots[side])
            if not (roots[side] / "perfbench" / "run.py").is_file():
                parser.error(f"{spec}: no perfbench/run.py there")
        if runner is None:
            timeout = BENCHMARK["run_seconds"] + RUN_SLACK_SECONDS

            def runner(root: Path, run_args: list[str]) -> str:
                return subprocess_runner(root, run_args, timeout)

        correct = True
        for workload in args.workload:
            runs = run_pairs(roots, workload, args.pairs, args.seed, runner)
            print(summarize(workload, runs), flush=True)
            correct = correct and all(
                run.correct for side in SIDES for run in runs[side]
            )
    finally:
        for root in exported:
            shutil.rmtree(root, ignore_errors=True)
    if not correct:
        print("bench_pairs: a run reported incorrect output", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
