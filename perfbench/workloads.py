"""The benchmark's three workloads, built only from the package's entry points.

* ``paper_grid`` — the Figure 4 / Table 1 grid of ``paper_default``
  (protocols dac and ndac x arrival patterns 2 and 4 x seeds) through
  ``Study.run(jobs=2)``: a cold pass into an empty ``ResultStore``, then
  warm passes served from it, exported with ``ResultSet.to_json`` and
  rendered with ``report.figure4_report`` and ``report.table1_report``.
* ``megacity`` — ``megacity_1m`` at 100,200 peers through
  ``run_simulation``: population scale on the array engine.
* ``churn_recovery`` — ``unstable_suppliers_100k`` through
  ``run_simulation``: mid-stream supplier departures and recovery.

The scenario chooses the engine, kernel, probes and message accounting;
nothing here overrides them.  The workload seed reaches the program only
as ``master_seed``.  A *cycle* is one timed unit of work: one run, or one
cold pass plus its warm passes.  Every operation of a cycle is checked
afterwards (see :mod:`checks`).
"""

from __future__ import annotations

import contextlib
import gc
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import calibration
from checks import FingerprintCheck, fingerprint, invariant_problems

WORKLOADS = ("paper_grid", "megacity", "churn_recovery")
#: the seed the fingerprints in ``pins.json`` were taken at
DEFAULT_SEED = 1

#: single-run workloads: (scenario, scale, has a lifecycle model)
SINGLE_RUNS = {
    "megacity": ("megacity_1m", 0.1, False),
    "churn_recovery": ("unstable_suppliers_100k", 0.1, True),
}
#: times each single run's report is rendered (one render takes ~1 ms)
RENDER_REPEATS = 25

GRID_SCENARIO = "paper_default"
#: at 0.01 only one seed supplier exists and no peer is ever admitted
GRID_SCALE = 0.05
GRID_PROTOCOLS = ("dac", "ndac")
GRID_PATTERNS = (2, 4)
GRID_SEEDS = 2
GRID_JOBS = 2
#: warm passes per cold pass (one takes ~0.1 s, too short to time alone)
WARM_PASSES = 10


def grid_seeds(seed: int) -> list[int]:
    """The grid's master seeds for a workload seed (disjoint across seeds)."""
    return [seed * GRID_SEEDS + offset for offset in range(GRID_SEEDS)]


def build_study(seed: int):
    """The paper_grid study for a workload seed."""
    import repro

    return (
        repro.Study.from_scenario(GRID_SCENARIO, scale=GRID_SCALE)
        .protocols(*GRID_PROTOCOLS)
        .sweep("arrival_pattern", list(GRID_PATTERNS))
        .seeds(grid_seeds(seed))
    )


def build_config(name: str, seed: int):
    """The single-run workload's config for a workload seed."""
    import repro

    scenario, scale, _ = SINGLE_RUNS[name]
    return repro.get_scenario(scenario).build_config(scale=scale, master_seed=seed)


def expand(name: str, seed: int) -> object:
    """The workload's expansion, as a user pays it before the first run."""
    if name == "paper_grid":
        return build_study(seed).specs()
    return build_config(name, seed)


#: timing samples that are rates, so scale against the host's speed
RATES = ("events_per_s",)


@dataclass
class Outcome:
    """Operations attempted and failed, plus every timing sample."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: timing samples as measured
    raw: dict[str, list[float]] = field(default_factory=dict)
    #: the same samples scaled to the reference host (see :mod:`calibration`)
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: per cycle: what the program did (events, requests, ...)
    cycles: list[dict[str, float]] = field(default_factory=list)

    def check(self, label: str, problems: list[str]) -> None:
        """Count one operation; it failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: " + "; ".join(problems))

    def crashed(self, label: str) -> None:
        """Count one operation that raised (call from an ``except``)."""
        self.check(label, [traceback.format_exc().strip()])

    def sample(self, name: str, value: float) -> None:
        """Record one timing sample, as measured."""
        self.raw.setdefault(name, []).append(value)

    def scale(self, since: dict[str, int], host_s: float) -> None:
        """Scale the samples recorded after ``since`` to the reference host.

        ``host_s`` is what the calibration unit took around them.
        """
        factor = calibration.REFERENCE_S / host_s
        for name, values in self.raw.items():
            scaled = self.samples.setdefault(name, [])
            for value in values[since.get(name, 0):]:
                scaled.append(value / factor if name in RATES else value * factor)


def untraced(tracer) -> contextlib.AbstractContextManager:
    """Keep the benchmark's own checks out of the trace."""
    return tracer.pause() if tracer is not None else contextlib.nullcontext()


def cycle_counts(results) -> dict[str, float]:
    """What the program did in one cycle, summed over its runs."""
    totals = dict.fromkeys(
        ("events", "requests", "admissions", "messages", "interruptions",
         "recovered", "lost", "run_wall_s"),
        0.0,
    )
    for result in results:
        metrics = result.metrics
        totals["events"] += result.events_processed
        totals["requests"] += sum(metrics.requests.values())
        totals["admissions"] += sum(metrics.admitted.values())
        totals["messages"] += (result.message_stats or {}).get("messages", 0)
        totals["interruptions"] += sum(metrics.interruptions.values())
        totals["recovered"] += sum(metrics.recovered_sessions.values())
        totals["lost"] += sum(metrics.sessions_lost.values())
        totals["run_wall_s"] += result.wall_seconds
    return totals


class SingleRun:
    """One ``run_simulation`` call per cycle, then its report rendered."""

    def __init__(self, name: str, seed: int, outcome: Outcome, pins: dict) -> None:
        self.name = name
        self.outcome = outcome
        self.config = build_config(name, seed)
        self.lifecycle = SINGLE_RUNS[name][2]
        #: set by a traced run, so checks stay out of the trace
        self.tracer = None
        self.fingerprints = FingerprintCheck(
            {name: pins[name]}, at_default_seed=seed == DEFAULT_SEED
        )

    def render(self, result) -> str:
        """The run's Figure 4 capacity and Figure 5 admission-rate reports."""
        from repro.analysis import report

        config = self.config
        return report.figure4_report(
            {config.protocol: result}, config.arrival_pattern
        ) + report.figure5_report(result, config.protocol)

    def cycle(self, label: str) -> float | None:
        """Run once, render the report; the timed seconds, None on a crash."""
        import repro

        try:
            start = time.perf_counter()
            result = repro.run_simulation(self.config)
            run_s = time.perf_counter() - start
            renders = []
            for _ in range(RENDER_REPEATS):
                start = time.perf_counter()
                text = self.render(result)
                renders.append(time.perf_counter() - start)
        except Exception:
            self.outcome.crashed(f"{self.name} {label}")
            return None
        with untraced(self.tracer):
            problems = invariant_problems(result, lifecycle=self.lifecycle)
            problems += self.fingerprints.problems(self.name, fingerprint(result))
        footer = (
            f"final capacity {result.metrics.final_capacity():.0f} of "
            f"{result.max_capacity} max"
        )
        if footer not in text:
            problems.append(f"the rendered report lacks {footer!r}")
        self.outcome.check(f"{self.name} {label}", problems)
        self.outcome.sample("run_s", run_s)
        self.outcome.sample("events_per_s", result.events_processed / run_s)
        for seconds in renders:
            self.outcome.sample("report_s", seconds)
        self.outcome.cycles.append(cycle_counts([result]))
        return run_s + sum(renders)


class Grid:
    """A cold pass into an empty store, then warm passes served from it."""

    def __init__(self, seed: int, outcome: Outcome, pins: dict, workdir: Path) -> None:
        self.outcome = outcome
        self.study = build_study(seed)
        self.workdir = workdir
        #: set by a traced run, so checks stay out of the trace
        self.tracer = None
        self.fingerprints = FingerprintCheck(
            pins["paper_grid"], at_default_seed=seed == DEFAULT_SEED
        )

    @staticmethod
    def key(record) -> str:
        """A spec's name in ``pins.json``."""
        return f"{record.protocol}/p{record.arrival_pattern}/s{record.seed}"

    @staticmethod
    def render(result_set) -> str:
        """Figure 4 per arrival pattern and Table 1, for each grid seed."""
        from repro.analysis import report

        sections = []
        for seed in sorted({record.seed for record in result_set}):
            runs = result_set.filter(seed=seed)
            for pattern in GRID_PATTERNS:
                subset = runs.filter(arrival_pattern=pattern)
                sections.append(report.figure4_report(
                    {record.protocol: record for record in subset}, pattern
                ))
            sections.append(report.table1_report(
                {(record.protocol, record.arrival_pattern): record for record in runs}
            ))
        return "\n\n".join(sections)

    def check_warm(self, where, warm, cold_digests, export_path, text) -> None:
        """Each warm record is its cold one, served; the export is valid."""
        from repro.devtools import studycheck

        for record in warm:
            problems = []
            if record.result is not None:
                problems.append("recomputed instead of served from the store")
            if record.fingerprint() != cold_digests.get(record.spec_hash):
                problems.append("record differs from its cold-pass record")
            self.outcome.check(f"{where} {self.key(record)}", problems)
        findings, _ = studycheck.check_file(export_path)
        problems = [finding.message for finding in findings]
        if "Table 1" not in text:
            problems.append("the rendered report lacks Table 1")
        self.outcome.check(f"{where} export", problems)

    def cycle(self, label: str) -> float | None:
        """One cold pass and its warm passes; timed seconds, None on a crash."""
        import repro

        store_dir = self.workdir / f"store-{label}"
        export_path = self.workdir / f"export-{label}.json"
        try:
            store = repro.ResultStore(store_dir)
            start = time.perf_counter()
            cold = self.study.run(jobs=GRID_JOBS, store=store)
            cold_s = time.perf_counter() - start
        except Exception:
            self.outcome.crashed(f"paper_grid {label} cold pass")
            shutil.rmtree(store_dir, ignore_errors=True)
            return None
        self.outcome.sample("run_s", cold_s)
        self.outcome.sample(
            "events_per_s",
            sum(record.events_processed for record in cold)
            / sum(record.wall_seconds for record in cold),
        )
        self.outcome.cycles.append(cycle_counts(cold))
        cold_digests = {}
        with untraced(self.tracer):
            for record in cold:
                key = self.key(record)
                problems = invariant_problems(record)
                problems += self.fingerprints.problems(key, fingerprint(record))
                self.outcome.check(f"paper_grid {label} cold {key}", problems)
                cold_digests[record.spec_hash] = record.fingerprint()
        timed = cold_s
        for warm_pass in range(WARM_PASSES):
            where = f"paper_grid {label} warm {warm_pass}"
            try:
                start = time.perf_counter()
                warm = self.study.run(jobs=GRID_JOBS, store=store)
                warm.to_json(export_path)
                text = self.render(warm)
                warm_s = time.perf_counter() - start
            except Exception:
                self.outcome.crashed(where)
                continue
            self.outcome.sample("report_s", warm_s)
            timed += warm_s
            with untraced(self.tracer):
                self.check_warm(where, warm, cold_digests, export_path, text)
        shutil.rmtree(store_dir, ignore_errors=True)
        export_path.unlink(missing_ok=True)
        return timed


def make(name: str, seed: int, outcome: Outcome, pins: dict, workdir: Path):
    """The workload object for ``name``."""
    if name == "paper_grid":
        return Grid(seed, outcome, pins, workdir)
    return SingleRun(name, seed, outcome, pins)


def measure(
    workload,
    seconds: float,
    tracer=None,
    first: int = 0,
    max_cycles: int | None = None,
) -> list[float]:
    """Run cycles while the next one is expected to end within ``seconds``.

    Returns the timed seconds of each cycle that did not crash, as
    measured; at most ``max_cycles`` cycles run.  The calibration unit
    is timed before and after every cycle, and the cycle's samples are
    scaled by the mean of the two.  With a ``tracer``, each cycle's
    spans are labelled with the cycle.  Garbage is collected between
    cycles: an engine's reference cycles would otherwise outlive its
    run, and peak memory would grow with the number of cycles that fit
    in the run.
    """
    outcome = workload.outcome
    timed: list[float] = []
    walls: list[float] = []
    begin = time.perf_counter()
    host_s = calibration.probe()
    while not walls or (
        time.perf_counter() - begin + statistics.median(walls) <= seconds
        and len(walls) != max_cycles
    ):
        label = f"c{first + len(walls)}"
        if tracer is not None:
            tracer.begin_cycle(label)
        start = time.perf_counter()
        since = {name: len(values) for name, values in outcome.raw.items()}
        seconds_timed = workload.cycle(label)
        gc.collect()
        after_s = calibration.probe()
        outcome.scale(since, (host_s + after_s) / 2)
        host_s = after_s
        walls.append(time.perf_counter() - start)
        if seconds_timed is not None:
            timed.append(seconds_timed)
    return timed
