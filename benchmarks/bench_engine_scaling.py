#!/usr/bin/env python3
"""Engine scaling benchmark: object vs. array events/sec across populations.

Measures both execution engines on the ``metropolis_100k`` workload at a
range of population scales — the per-peer object walk of
:class:`~repro.simulation.system.StreamingSystem` against the
struct-of-arrays :class:`~repro.simulation.arrayengine.ArrayEngine` —
then runs the ``megacity_1m`` scenario (a million requesters) end-to-end
on the array engine.  Both engines are built directly: ``run_simulation``
would pick the array engine for every config measured here.

Setup (system construction: peer tables, prescheduled arrivals) and the
dispatch loop are timed separately; ``events_per_sec`` is dispatch-loop
throughput (``events / run_seconds``), the quantity that scales with
event count, while ``wall_seconds`` keeps the total honest.  Both
engines produce bit-identical results by contract (the parity suite in
``tests/simulation/test_arrayengine.py`` pins that), so throughput is
the only thing compared here.

Results are printed and written to
``benchmarks/output/BENCH_engine_scaling.json`` (schema
``repro.bench_engine_scaling.v1``, validated by
``scripts/check_bench_json.py``).

Usage::

    python benchmarks/bench_engine_scaling.py            # full sweep (minutes)
    python benchmarks/bench_engine_scaling.py --quick    # CI smoke (seconds)
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
from time import perf_counter

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # script-style invocation
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro._version import __version__  # noqa: E402
from repro.scenarios import get_scenario  # noqa: E402
from repro.simulation.arrayengine import ArrayEngine  # noqa: E402
from repro.simulation.system import StreamingSystem  # noqa: E402

SCHEMA = "repro.bench_engine_scaling.v1"
ENGINES = {"object": StreamingSystem, "array": ArrayEngine}
SCENARIO = "metropolis_100k"
MEGACITY = "megacity_1m"
FULL_SCALES = (0.05, 0.1, 0.25, 1.0)
QUICK_SCALES = (0.02,)
#: megacity scale per mode: full runs the actual million-peer build
MEGACITY_SCALE = {"full": 1.0, "quick": 0.004}
DEFAULT_OUT = REPO_ROOT / "benchmarks" / "output" / "BENCH_engine_scaling.json"


def measure(engine: str, config, repeats: int) -> dict:
    """Best-of-``repeats`` (by loop throughput) timings of one config.

    Construction and the dispatch loop are timed separately so the two
    engines' loops are compared like for like: setup is a one-off cost
    (and the array engine's includes vectorized arrival precomputation),
    the loop is what runs once per event.
    """
    best = None
    for _ in range(repeats):
        start = perf_counter()
        system = ENGINES[engine](config)
        built = perf_counter()
        system.run()
        done = perf_counter()
        events = (
            system.events_processed if engine == "array"
            else system.sim.events_processed
        )
        run_seconds = done - built
        events_per_sec = events / run_seconds
        if best is None or events_per_sec > best["events_per_sec"]:
            best = {
                "events": events,
                "setup_seconds": round(built - start, 3),
                "run_seconds": round(run_seconds, 3),
                "wall_seconds": round(done - start, 3),
                "events_per_sec": round(events_per_sec, 1),
            }
    return best


def run_bench(scales, repeats: int, quick: bool) -> dict:
    """Execute the sweep plus the megacity run; assemble the payload."""
    scenario = get_scenario(SCENARIO)
    runs = []
    speedups = []
    for scale in scales:
        config = scenario.build_config(scale=scale)
        peers = config.total_peers
        by_engine = {}
        for engine in ENGINES:
            timings = measure(engine, config, repeats)
            by_engine[engine] = timings
            runs.append({
                "scale": scale, "peers": peers, "scenario": SCENARIO,
                "engine": engine, **timings,
            })
            print(f"scale {scale:>5} ({peers} peers)  {engine:<6} "
                  f"{timings['events_per_sec']:>10,.0f} ev/s  "
                  f"(setup {timings['setup_seconds']:.2f}s, "
                  f"run {timings['run_seconds']:.2f}s)", flush=True)
        speedups.append({
            "scale": scale,
            "peers": peers,
            "events_per_sec_object": by_engine["object"]["events_per_sec"],
            "events_per_sec_array": by_engine["array"]["events_per_sec"],
            "speedup_array_vs_object": round(
                by_engine["array"]["events_per_sec"]
                / by_engine["object"]["events_per_sec"], 2,
            ),
            "speedup_total_wall": round(
                by_engine["object"]["wall_seconds"]
                / by_engine["array"]["wall_seconds"], 2,
            ),
        })

    mega_scenario = get_scenario(MEGACITY)
    mega_scale = MEGACITY_SCALE["quick" if quick else "full"]
    mega_config = mega_scenario.build_config(scale=mega_scale)
    timings = measure("array", mega_config, 1)
    megacity = {
        "scenario": MEGACITY,
        "scale": mega_scale,
        "peers": mega_config.total_peers,
        "engine": "array",
        "completed": True,  # measure() raised otherwise
        **timings,
    }
    print(f"{MEGACITY} scale {mega_scale} ({megacity['peers']:,} peers)  "
          f"{timings['events']:,} events in {timings['wall_seconds']:.1f}s "
          f"({timings['events_per_sec']:,.0f} ev/s)", flush=True)

    return {
        "schema": SCHEMA,
        "version": __version__,
        "quick": quick,
        "scenario": SCENARIO,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs": runs,
        "speedups": speedups,
        "megacity": megacity,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: one tiny scale and a scaled-down "
                             "megacity instead of the full sweep")
    parser.add_argument("--repeats", type=int, default=1,
                        help="measurements per configuration; best reported")
    parser.add_argument("--out", default=None,
                        help=f"output JSON path (default: {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    scales = QUICK_SCALES if args.quick else FULL_SCALES
    payload = run_bench(scales, repeats=max(1, args.repeats), quick=args.quick)

    out_path = Path(args.out) if args.out else DEFAULT_OUT
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {out_path}")
    for entry in payload["speedups"]:
        print(f"scale {entry['scale']:>5}: array "
              f"{entry['events_per_sec_array']:,.0f} ev/s — "
              f"{entry['speedup_array_vs_object']:.2f}x the object loop "
              f"({entry['speedup_total_wall']:.2f}x total wall)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
