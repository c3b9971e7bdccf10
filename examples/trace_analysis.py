#!/usr/bin/env python3
"""Trace analysis — opening up one simulated run event by event.

Records a structured trace of a DAC_p2p run, audits it against the paper's
model invariants, and mines it for protocol phenomena the aggregate metrics
hide:

* concurrent-session load over time (how hard the supply side works),
* reminder waves around arrival bursts (the tighten signal at work),
* the rejection histogram behind the Table-1 means,
* per-supplier utilisation (how many sessions each seed ended up serving).

Run:  python examples/trace_analysis.py [--scale 0.02] [--save trace.jsonl]
"""

import argparse
from collections import Counter

from repro.analysis.plots import render_table, sparkline
from repro.scenarios import get_scenario, scenario_names
from repro.simulation.arrayengine import ArrayEngine
from repro.simulation.trace import TraceRecorder
from repro.simulation.validation import audit_system

HOUR = 3600.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--scenario", default="diurnal", choices=scenario_names(),
                        help="workload to trace")
    parser.add_argument("--save", type=str, default=None,
                        help="also write the trace as JSON Lines")
    args = parser.parse_args()

    config = get_scenario(args.scenario).build_config(scale=args.scale)
    print("Run:", config.describe())

    trace = TraceRecorder(path=args.save) if args.save else TraceRecorder()
    engine = ArrayEngine(config, trace=trace)
    engine.run()
    trace.close()

    print(f"\ntrace: {len(trace.events)} events "
          f"({trace.count('admission')} admissions, "
          f"{trace.count('rejection')} rejections, "
          f"{trace.count('supplier_joined')} supplier joins, "
          f"{trace.count('idle_elevation')} idle elevations)")

    # ------------------------------------------------------------------
    # 1. The audit: every model invariant of the paper holds.
    # ------------------------------------------------------------------
    report = audit_system(engine, trace)
    print(f"\ninvariant audit: {report.summary()}")

    # ------------------------------------------------------------------
    # 2. Concurrent sessions per hour (supply-side load).
    # ------------------------------------------------------------------
    horizon_hours = int(config.horizon_seconds / HOUR)
    load = [0] * horizon_hours
    show_hours = config.show_seconds / HOUR
    for event in trace.of_kind("admission"):
        start = event["t"] / HOUR
        for hour in range(int(start), min(int(start + show_hours) + 1,
                                          horizon_hours)):
            load[hour] += 1
    print("\nconcurrent sessions per hour:")
    print("  " + sparkline([float(v) for v in load], width=72))
    print(f"  peak: {max(load)} concurrent sessions at hour {load.index(max(load))}")

    # ------------------------------------------------------------------
    # 3. Rejections histogram (what's behind the Table-1 means).
    # ------------------------------------------------------------------
    per_peer = Counter()
    for event in trace.of_kind("rejection"):
        per_peer[event["peer"]] = event["rejections"]
    histogram = Counter(per_peer.values())
    admitted_first_try = trace.count("admission") - len(per_peer)
    rows = [["0 (first try)", str(admitted_first_try)]]
    for rejections in sorted(histogram):
        rows.append([str(rejections), str(histogram[rejections])])
    print()
    print(render_table(["rejections before admission", "peers"], rows,
                       title="Rejection histogram"))

    # ------------------------------------------------------------------
    # 4. Reminder waves: tighten pressure follows the arrival bursts.
    # ------------------------------------------------------------------
    elevation_hours = Counter(
        int(e["t"] / HOUR) for e in trace.of_kind("idle_elevation")
    )
    series = [float(elevation_hours.get(h, 0)) for h in range(horizon_hours)]
    print("\nidle elevations per hour (relax pressure):")
    print("  " + sparkline(series, width=72))

    # ------------------------------------------------------------------
    # 5. Who did the work: sessions served per seed supplier, counted
    #    from the suppliers of every admission and resumed session.
    # ------------------------------------------------------------------
    served = Counter(
        supplier
        for kind in ("admission", "session_resumed")
        for event in trace.of_kind(kind)
        for supplier in event["suppliers"]
    )
    seed_rows = [
        [f"seed {pid}", str(served[pid])]
        for pid in range(sum(config.seed_suppliers.values()))
    ]
    print()
    print(render_table(["supplier", "sessions served"], seed_rows[:10],
                       title="Seed supplier utilisation (first 10)"))

    if args.save:
        print(f"\ntrace written to {args.save}")


if __name__ == "__main__":
    main()
