"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    One simulation run; prints the summary and (optionally) figure reports.
``study``
    Declarative experiment grid — scenario × protocols × sweeps × seeds —
    executed through the :class:`~repro.orchestration.study.Study`
    builder.  ``--protocols dac ndac`` adds a protocol axis, repeatable
    ``--sweep PARAM V1 V2 ...`` adds parameter axes, ``--seeds K``
    replicates every point; ``--export json|csv`` writes the full record
    set.  Prints a per-run table, then the paper artifact the grid's
    axes imply: a protocol axis prints Figure 4 per arrival pattern plus
    Table 1 (when both ``dac`` and ``ndac`` are on it), a
    ``probe_candidates`` or ``t_out_seconds`` sweep prints Figure 8, an
    ``e_bkf`` sweep prints Figure 9, and ``--seeds K > 1`` prints final
    capacity and per-class rejections as mean ± CI.
``study shard``
    Claim and execute one slice of a study grid against a shared or
    per-host :class:`~repro.orchestration.store.ResultStore`
    (``--store DIR``), cooperating with other workers through the
    lease-based claim protocol in :mod:`repro.orchestration.shard`:
    ``--slice I/N`` takes every N-th spec starting at I, ``--owner`` and
    ``--lease`` control claim identity and expiry, ``--claim-batch``
    sets the claim-wave size (smaller waves interleave better with
    other workers and tolerate shorter leases), and ``--executed-log``
    appends one ``owner spec_hash`` line per executed spec.  It is the
    one way back into a grid whose worker died: its leases expire, and
    ``study shard --slice 0/1`` over the same store claims and runs what
    is missing.
``study merge``
    Fold N shard stores into one (``--into DEST SRC...``), verifying
    spec-hash and payload agreement on every overlap; disagreement
    aborts the merge, because two differing records under one spec hash
    mean a determinism violation (or records of two releases).  Every
    source must be an existing directory.
``study status``
    Claimed / done / orphaned census of an existing store's records and
    claims (``--store DIR``); with a grid (``--scenario`` plus the usual
    axis flags) also reports how many specs remain pending.
``experiment``
    Regenerate one paper table/figure by id (``fig1`` … ``table1``): the
    artifact's preset grid, run as a study and printed by the renderer
    ``study`` uses.
``scenarios``
    List every registered workload scenario.
``perf``
    Performance harness: run one workload as configured and with full
    instrumentation (every probe, message accounting) as the reference,
    and print events/sec.
``assignment``
    OTS_p2p vs baselines on a supplier set given as classes, e.g.
    ``repro-p2pstream assignment 1 2 3 3``.
``patterns``
    Show the four arrival patterns as ASCII histograms.
``lint``
    detlint — the AST-based determinism analyzer
    (:mod:`repro.devtools.staticcheck`): checks the RNG-injection
    discipline, the wall-clock ban and unordered-iteration hazards.
    ``--rules`` selects a subset (space-separated), ``--list-rules``
    names them and ``--format json`` prints the findings as JSON.
    Exits 0 when clean, 1 on findings and 2 on a usage error.

Simulation commands pick their workload with ``--scenario NAME`` (see
``scenarios``; the paper's setup when it is not given), set its
arrival pattern with ``--pattern N``, and accept
``--scale`` so full paper scale (1.0) or quick runs (0.05) are one flag
away.  Every run takes the array engine (see
:func:`~repro.simulation.runner.run_simulation`), so there is no engine
flag.  ``--lifecycle`` selects a session-lifecycle model
scheduling supplier departures, graceful or mid-stream (with
``--recovery`` choosing what interrupted requesters do; see
:mod:`repro.simulation.lifecycle`),
``--probes NAME...`` (on ``run``/``study``) subscribes only the named
metric probes (space- or comma-separated), and ``--profile`` (on
``run``/``study``) wraps execution in :mod:`cProfile` and prints the top
25 cumulative entries.  The grid command ``study`` takes ``--jobs N`` to
fan its independent runs out over worker processes, ``--cache-dir DIR``
to memoize run records on disk (repeat invocations are served from the
:class:`~repro.orchestration.store.ResultStore` without re-simulating,
and a killed run repeated over the same directory executes only what is
missing), and ``--export json|csv`` (with ``--out BASE``) to write the
record set for downstream analysis.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import sys
from pathlib import Path

from repro.analysis import report
from repro.analysis.experiments import (
    axes_label,
    list_experiments,
    render_artifacts,
    run_experiment,
)
from repro.analysis.plots import ascii_chart, render_table
from repro.core.assignment import (
    contiguous_assignment,
    ots_assignment,
    round_robin_assignment,
)
from repro.core.model import ClassLadder, SupplierOffer
from repro.core.schedule import min_start_delay_slots
from repro.errors import P2PStreamError
from repro.scenarios import all_scenarios, get_scenario, scenario_names
from repro.orchestration.shard import (
    merge_stores,
    shard_run,
    store_status,
)
from repro.orchestration.store import ResultStore
from repro.orchestration.study import ResultSet, Study
from repro.simulation.arrivals import arrivals_per_bin, generate_arrival_times, make_pattern
from repro.simulation.config import SimulationConfig
from repro.simulation.lifecycle import LIFECYCLE_NAMES, RECOVERY_MODES
from repro.simulation.probes import SeriesPoint
from repro.simulation.probes import PROBE_NAMES
from repro.simulation.runner import run_simulation

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-p2pstream",
        description="Reproduction of 'On Peer-to-Peer Media Streaming' (ICDCS 2002)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scale", type=float, default=0.1,
                       help="population scale (1.0 = paper's 50,100 peers)")
        p.add_argument("--scenario", choices=scenario_names(), default=None,
                       help="workload scenario (see the 'scenarios' command)")
        p.add_argument("--pattern", type=int, default=None, choices=[1, 2, 3, 4],
                       help="first-request arrival pattern (default: 2, "
                            "or the scenario's own pattern)")
        p.add_argument("--seed", type=int, default=None, help="master RNG seed")
        p.add_argument("--lookup", choices=["directory", "chord"], default=None,
                       help="lookup substrate (default: the scenario's)")
        p.add_argument("--lifecycle", choices=list(LIFECYCLE_NAMES),
                       default=None,
                       help="session-lifecycle model scheduling supplier "
                            "departures, graceful or mid-stream (default: "
                            "the scenario's, normally none)")
        p.add_argument("--recovery", choices=list(RECOVERY_MODES),
                       default=None,
                       help="what interrupted requesters do under a "
                            "lifecycle model (default: the scenario's, "
                            "normally resume)")

    def probe_names(text: str) -> list[str]:
        """One ``--probes`` token: a probe name or a comma-separated list."""
        names = [name for name in text.split(",") if name]
        if not names:
            raise argparse.ArgumentTypeError("empty probe list")
        for name in names:
            if name not in PROBE_NAMES:
                raise argparse.ArgumentTypeError(
                    f"unknown probe {name!r}; known: {', '.join(PROBE_NAMES)}"
                )
        return names

    def add_probes(p: argparse.ArgumentParser) -> None:
        p.add_argument("--probes", nargs="+", type=probe_names,
                       default=None, metavar="PROBE",
                       help="subscribe only these metric probes, space- or "
                            "comma-separated (default: the scenario's, "
                            f"normally all; known: {', '.join(PROBE_NAMES)})")

    def add_profile(p: argparse.ArgumentParser) -> None:
        p.add_argument("--profile", action="store_true",
                       help="wrap execution in cProfile and print the top "
                            "25 cumulative entries")

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    def positive_float(text: str) -> float:
        value = float(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
        return value

    def add_jobs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=positive_int, default=1,
                       help="worker processes for independent runs (default 1)")

    def add_cache(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache-dir", default=None,
                       help="directory memoizing run records on disk; repeat "
                            "invocations skip already-computed runs")

    def add_export(p: argparse.ArgumentParser) -> None:
        p.add_argument("--export", action="append", choices=["json", "csv"],
                       default=None, metavar="FORMAT",
                       help="write the run records as json or csv "
                            "(repeatable)")
        p.add_argument("--out", default=None,
                       help="output base path for --export "
                            "(default: the command name; files get "
                            ".json/.csv suffixes)")

    run_p = sub.add_parser("run", help="run one simulation")
    add_common(run_p)
    add_probes(run_p)
    add_profile(run_p)
    run_p.add_argument("--protocol", default=None,
                       help="admission policy name (dac, ndac, dac-no-reminder, "
                            "...; default: the scenario's, normally dac)")
    run_p.add_argument("--figures", action="store_true",
                       help="print Figure 5/6/7 reports for the run")

    def add_grid(p: argparse.ArgumentParser) -> None:
        p.add_argument("--protocols", nargs="+", default=None,
                       metavar="PROTOCOL",
                       help="admission policies to grid over (default: "
                            "the scenario's single protocol)")
        p.add_argument("--sweep", action="append", nargs="+", default=None,
                       metavar=("PARAM VALUE", "VALUE"),
                       help="sweep a config field: --sweep PARAM V1 V2 ... "
                            "(repeatable; values coerced to the field's "
                            "type)")
        p.add_argument("--seeds", type=positive_int, default=1,
                       help="replications per grid point (default 1)")
        p.add_argument("--seed-stride", type=positive_int, default=1,
                       help="stride between derived master seeds (default 1)")

    study_p = sub.add_parser(
        "study", help="declarative grid: protocols x sweeps x seeds"
    )
    add_common(study_p)
    add_probes(study_p)
    add_profile(study_p)
    add_jobs(study_p)
    add_cache(study_p)
    add_export(study_p)
    add_grid(study_p)

    study_sub = study_p.add_subparsers(
        dest="study_command", metavar="SUBCOMMAND",
        help="sharded execution: shard, merge, status "
             "(omit to run the grid in this process)",
    )

    shard_p = study_sub.add_parser(
        "shard", help="claim and execute a slice of a study against a store"
    )
    add_common(shard_p)
    add_probes(shard_p)
    add_jobs(shard_p)
    add_grid(shard_p)
    shard_p.add_argument("--store", required=True,
                         help="result store directory (shared between "
                              "workers, or per-host and merged later)")
    shard_p.add_argument("--owner", default=None,
                         help="claim owner identity (default: host-pid)")
    shard_p.add_argument("--lease", type=positive_float, default=900.0,
                         help="claim lease seconds; must exceed one claim "
                              "wave's runtime (default 900)")
    shard_p.add_argument("--slice", default="0/1", metavar="I/N",
                         help="execute every N-th spec starting at I "
                              "(default 0/1: the whole grid)")
    shard_p.add_argument("--claim-batch", type=positive_int, default=None,
                         metavar="K",
                         help="claim at most K specs per wave (default: "
                              "the whole slice at once)")
    shard_p.add_argument("--executed-log", default=None, metavar="FILE",
                         help="append one 'owner spec_hash' line per "
                              "executed spec")

    merge_p = study_sub.add_parser(
        "merge", help="fold shard stores into one, verifying agreement"
    )
    merge_p.add_argument("--into", required=True, metavar="DEST",
                         help="destination store directory")
    merge_p.add_argument("sources", nargs="+", metavar="SRC",
                         help="source store directories (each must exist)")

    status_p = study_sub.add_parser(
        "status", help="claimed/done/orphaned census of a store"
    )
    add_common(status_p)
    add_probes(status_p)
    add_grid(status_p)
    status_p.add_argument("--store", required=True,
                          help="existing result store directory to census")

    sub.add_parser("scenarios", help="list the registered workload scenarios")

    perf_p = sub.add_parser(
        "perf", help="events/sec of one workload against full instrumentation"
    )
    add_common(perf_p)
    perf_p.add_argument("--repeats", type=positive_int, default=1,
                        help="measurements per row; the best is reported "
                             "(default 1)")
    perf_p.add_argument("--no-reference", action="store_true",
                        help="skip the full-instrumentation reference run "
                             "(every probe, message accounting)")

    asg_p = sub.add_parser("assignment", help="compare assignment algorithms")
    asg_p.add_argument("classes", nargs="+", type=int,
                       help="supplier classes (offers must sum to R0), e.g. 1 2 3 3")
    asg_p.add_argument("--num-classes", type=int, default=4)

    pat_p = sub.add_parser("patterns", help="show the arrival patterns")
    pat_p.add_argument("--peers", type=int, default=5000)
    pat_p.add_argument("--window-hours", type=float, default=72.0)

    lint_p = sub.add_parser(
        "lint", help="detlint: determinism static analysis"
    )
    lint_p.add_argument("paths", nargs="*", default=None, metavar="PATH",
                        help="files or directories to lint, relative to "
                             "--root (default: src benchmarks examples)")
    lint_p.add_argument("--root", default=".",
                        help="repository root (default: current directory)")
    lint_p.add_argument("--rules", nargs="+", default=None, metavar="RULE",
                        help="run only these rules (default: all)")
    lint_p.add_argument("--list-rules", action="store_true",
                        help="list the available rules and exit")
    lint_p.add_argument("--format", choices=["text", "json"], default="text",
                        help="finding output format (default text)")

    exp_p = sub.add_parser(
        "experiment", help="regenerate one paper table/figure by id"
    )
    add_common(exp_p)
    add_cache(exp_p)
    exp_p.add_argument("experiment_id", nargs="?", default=None,
                       help="experiment id (fig1, fig4, ..., table1); omit to list")

    return parser


def _make_config(args: argparse.Namespace, **extra: object) -> SimulationConfig:
    """Expand the workload selection flags to a scaled configuration.

    ``--scenario`` picks a registered scenario (``paper_default`` when it
    is not given); ``--pattern``, ``--lookup``, ``--seed``,
    ``--protocol``, ``--lifecycle``, ``--recovery`` and ``--probes``
    override its values.
    """
    scenario = get_scenario(args.scenario or "paper_default")
    if args.pattern is not None:
        extra["arrival_pattern"] = args.pattern
    if args.lookup is not None:
        extra["lookup"] = args.lookup
    if args.seed is not None:
        extra["master_seed"] = args.seed
    if getattr(args, "protocol", None) is not None:
        extra["protocol"] = args.protocol
    if getattr(args, "lifecycle", None) is not None:
        extra["lifecycle"] = args.lifecycle
    if getattr(args, "recovery", None) is not None:
        extra["lifecycle_recovery"] = args.recovery
    if getattr(args, "probes", None) is not None:
        # each --probes token may itself be a comma-separated list
        extra["probes"] = tuple(
            name for chunk in args.probes for name in chunk
        )
    return scenario.build_config(scale=args.scale, **extra)


def _maybe_profiled(args: argparse.Namespace, body) -> int:
    """Run ``body`` under cProfile when ``--profile`` was given."""
    if not getattr(args, "profile", False):
        return body()
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return body()
    finally:
        profiler.disable()
        print()
        print("profile (top 25 by cumulative time):")
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)


def _store_from(args: argparse.Namespace) -> ResultStore | None:
    """The record store selected by ``--cache-dir``, if any."""
    cache_dir = getattr(args, "cache_dir", None)
    return ResultStore(cache_dir) if cache_dir else None


def _export_result_set(
    args: argparse.Namespace, result_set: ResultSet, default_base: str
) -> None:
    """Write the record set to every ``--export`` format requested."""
    for fmt in getattr(args, "export", None) or []:
        base = getattr(args, "out", None) or default_base
        path = Path(f"{base}.{fmt}")
        if fmt == "json":
            result_set.to_json(path)
        else:
            result_set.to_csv(path)
        print(f"wrote {path}")


def _coerce_sweep_value(parameter: str, text: str) -> object:
    """Parse a ``--sweep`` value string to the config field's type."""
    if parameter == "probes":
        # one subscription per value, comma-separated as ``--probes`` takes it
        return tuple(name for name in text.split(",") if name)
    default = getattr(SimulationConfig(), parameter, None)
    try:
        if isinstance(default, bool):
            return text.lower() in ("1", "true", "yes")
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
    except ValueError:
        raise P2PStreamError(
            f"--sweep {parameter} value {text!r} is not a valid "
            f"{type(default).__name__}"
        ) from None
    if isinstance(default, dict):
        # a per-class count (seed_suppliers, requesting_peers): {1: 50, ...}
        try:
            value = ast.literal_eval(text)
        except (ValueError, SyntaxError):
            value = None
        if not isinstance(value, dict) or not all(
            isinstance(k, int) and isinstance(v, int) for k, v in value.items()
        ):
            raise P2PStreamError(
                f"--sweep {parameter} value {text!r} is not a dict of class "
                "to count, e.g. '{1: 50, 2: 50}'"
            )
        return value
    return text


def _cmd_run(args: argparse.Namespace) -> int:
    return _maybe_profiled(args, lambda: _run_body(args))


def _run_body(args: argparse.Namespace) -> int:
    config = _make_config(args)
    print(config.describe())
    result = run_simulation(config)
    print(result.summary())
    rejections = result.metrics.mean_rejections_before_admission()
    delays = result.metrics.mean_buffering_delay_slots()
    rows = [
        [f"class {c}", f"{rejections[c]:.2f}", f"{delays[c]:.2f}"]
        for c in sorted(rejections)
    ]
    print(render_table(["", "avg rejections", "avg delay (x dt)"], rows))
    if args.figures:
        print()
        print(report.figure5_report(result, label=config.protocol))
        print()
        print(report.figure6_report(result, label=config.protocol))
        print()
        print(report.figure7_report(result))
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    command = getattr(args, "study_command", None)
    if command == "shard":
        return _study_shard_body(args)
    if command == "merge":
        return _study_merge_body(args)
    if command == "status":
        return _study_status_body(args)
    return _maybe_profiled(args, lambda: _study_body(args))


def _build_study(args: argparse.Namespace) -> Study:
    """Expand the shared grid flags into a :class:`Study` builder."""
    config = _make_config(args)
    study = Study.from_config(config, scenario=args.scenario)
    if args.protocols:
        study.protocols(*args.protocols)
    for sweep_spec in args.sweep or []:
        if len(sweep_spec) < 2:
            raise P2PStreamError(
                "--sweep needs a parameter name and at least one value"
            )
        parameter = sweep_spec[0]
        study.sweep(
            parameter,
            [_coerce_sweep_value(parameter, text) for text in sweep_spec[1:]],
        )
    study.seeds(args.seeds, stride=args.seed_stride)
    return study


def _parse_slice(text: str) -> tuple[int, int]:
    """``I/N`` — this worker's round-robin slice of the spec list."""
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise P2PStreamError(
            f"--slice must look like I/N (e.g. 0/2), got {text!r}"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise P2PStreamError(
            f"--slice needs 0 <= I < N with N >= 1, got {text!r}"
        )
    return index, count


def _study_shard_body(args: argparse.Namespace) -> int:
    config = _make_config(args)
    print(config.describe())
    slice_index, slice_count = _parse_slice(args.slice)
    report = shard_run(
        _build_study(args),
        ResultStore(args.store),
        owner=args.owner,
        lease_seconds=args.lease,
        jobs=args.jobs,
        slice_index=slice_index,
        slice_count=slice_count,
        claim_batch=args.claim_batch,
        executed_log=args.executed_log,
    )
    print(report.summary())
    return 0


def _existing_store(path: str) -> ResultStore:
    """A store a command only reads: a missing directory is an error,
    not an empty store to create."""
    if not Path(path).is_dir():
        raise P2PStreamError(f"no result store at {path}: no such directory")
    return ResultStore(path)


def _study_merge_body(args: argparse.Namespace) -> int:
    sources = [_existing_store(path) for path in args.sources]
    destination = ResultStore(args.into, require_version=None)
    report = merge_stores(destination, sources)
    print(report.summary())
    return 0


def _study_status_body(args: argparse.Namespace) -> int:
    store = _existing_store(args.store)
    # Pending counts need the grid; build it only when the invocation
    # actually describes one (otherwise report just the store's state).
    wants_grid = (
        args.scenario is not None or args.protocols or args.sweep
        or args.seeds != 1
    )
    study = _build_study(args) if wants_grid else None
    print(store_status(store, study).summary())
    return 0


def _study_body(args: argparse.Namespace) -> int:
    config = _make_config(args)
    print(config.describe())
    study = _build_study(args)
    result_set = study.run(jobs=args.jobs, store=_store_from(args))
    rows = []
    for record in result_set:
        axes = " ".join(
            f"{name}={value}" for name, value in record.axes
            if name not in ("protocol", "seed")
        )
        rows.append([
            record.scenario or "-",
            record.protocol,
            str(record.seed),
            axes or "-",
            f"{record.scalars['final_capacity']:.0f}",
            f"{100 * record.capacity_fraction_of_max:.1f}%",
            f"{record.wall_seconds:.2f}s",
            "cache" if record.result is None else "run",
        ])
    print(render_table(
        ["scenario", "protocol", "seed", "axes", "capacity", "% of max",
         "wall", "source"],
        rows,
        title=f"study: {len(result_set)} runs",
    ))
    artifacts = render_artifacts(result_set)
    if artifacts:
        print()
        print(artifacts)
    if args.seeds > 1:
        _print_seed_aggregates(result_set)
    _export_result_set(args, result_set, "study")
    return 0


def _print_seed_aggregates(result_set: ResultSet) -> None:
    """Final capacity and per-class rejections as mean ± CI across seeds."""
    print()
    print("final capacity across seeds (mean ± 95% CI):")
    for key, aggregate in result_set.aggregate("final_capacity").items():
        print(f"  {axes_label(key) or 'all runs'}: {aggregate}")
    # the classes some record had requesters of: a sweep may drop some
    classes = sorted({
        c for record in result_set
        for c, count in record.config.requesting_peers.items() if count
    })
    columns = [
        result_set.aggregate(
            lambda record, c=c: record.metrics.mean_rejections_before_admission()[c]
        )
        for c in classes
    ]
    rows = [
        [axes_label(key) or "all runs"] + [str(column[key]) for column in columns]
        for key in columns[0]
    ]
    print()
    print(render_table(
        ["", *(f"class {c}" for c in classes)],
        rows,
        title="rejections before admission across seeds (mean ± 95% CI)",
    ))


def _cmd_perf(args: argparse.Namespace) -> int:
    config = _make_config(args)
    print(config.describe())
    print()

    def measure(label: str, run_config: SimulationConfig) -> tuple[float, list[str]]:
        best = None
        for _ in range(args.repeats):
            result = run_simulation(run_config)
            events_per_sec = result.events_processed / result.wall_seconds
            if best is None or events_per_sec > best[0]:
                best = (events_per_sec, result)
        events_per_sec, result = best
        probes = run_config.probes
        return events_per_sec, [
            label,
            "all" if probes is None else f"{len(probes)}/{len(PROBE_NAMES)}",
            f"{result.events_processed}",
            f"{result.wall_seconds:.2f}s",
            f"{events_per_sec:,.0f}",
        ]

    rows = []
    reference_events_per_sec = None
    if not args.no_reference:
        # the full-instrumentation path: every probe and message
        # accounting — what every run paid before probe subscriptions
        # existed
        reference = config.replace(probes=None, track_messages=True)
        reference_events_per_sec, row = measure("reference", reference)
        rows.append(row + ["1.00x"])
    events_per_sec, row = measure("workload", config)
    speedup = (
        f"{events_per_sec / reference_events_per_sec:.2f}x"
        if reference_events_per_sec
        else "-"
    )
    rows.append(row + [speedup])
    print(render_table(
        ["run", "probes", "events", "wall", "events/sec", "speedup"],
        rows,
        title="perf: events/sec against full instrumentation",
    ))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    print("registered scenarios:")
    for scenario in all_scenarios():
        print(f"  {scenario.describe()}")
    return 0


def _cmd_assignment(args: argparse.Namespace) -> int:
    ladder = ClassLadder(args.num_classes)
    offers = [
        SupplierOffer(peer_id=i + 1, peer_class=c, units=ladder.offer_units(c))
        for i, c in enumerate(args.classes)
    ]
    for name, algorithm in (
        ("OTS_p2p (optimal)", ots_assignment),
        ("contiguous (Assignment I)", contiguous_assignment),
        ("round robin", round_robin_assignment),
    ):
        assignment = algorithm(offers, ladder)
        print(f"{name}: buffering delay {min_start_delay_slots(assignment)} x dt")
        print(assignment.describe())
        print()
    return 0


def _cmd_patterns(args: argparse.Namespace) -> int:
    window = args.window_hours * 3600.0
    for pattern_id in (1, 2, 3, 4):
        pattern = make_pattern(pattern_id, window)
        times = generate_arrival_times(pattern, args.peers)
        bins = arrivals_per_bin(times, 3600.0, window)
        series = {
            f"pattern {pattern_id}": [
                SeriesPoint(hour=float(h), value=float(v)) for h, v in enumerate(bins)
            ]
        }
        print(ascii_chart(series, title=f"Arrival pattern {pattern_id}",
                          y_label="arrivals/hour", height=10))
        print()
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # deferred so ordinary simulation commands never import the devtools
    import json

    from repro.devtools.reporting import exit_code, report as report_findings
    from repro.devtools.staticcheck import all_checkers, run_detlint
    from repro.devtools.staticcheck.framework import DEFAULT_PATHS

    try:
        checkers = all_checkers(args.rules)
    except ValueError as exc:
        raise P2PStreamError(str(exc)) from None
    if args.list_rules:
        for checker in sorted(checkers, key=lambda c: c.rule):
            print(f"{checker.rule}: {checker.description}")
        return 0
    paths = args.paths or list(DEFAULT_PATHS)
    findings = run_detlint(Path(args.root), paths=paths, checkers=checkers)
    if args.format == "json":
        print(json.dumps([dataclasses.asdict(f) for f in findings], indent=2))
        return exit_code(findings)
    return report_findings(
        "detlint", findings,
        ok_detail=f"{len(checkers)} rule(s) over {' '.join(paths)}",
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.experiment_id is None:
        print("available experiments:")
        print(list_experiments())
        return 0
    config = _make_config(args)
    print(run_experiment(args.experiment_id, config, store=_store_from(args)))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "study": _cmd_study,
    "scenarios": _cmd_scenarios,
    "perf": _cmd_perf,
    "assignment": _cmd_assignment,
    "patterns": _cmd_patterns,
    "lint": _cmd_lint,
    "experiment": _cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except P2PStreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
