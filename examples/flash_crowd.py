#!/usr/bin/env python3
"""Flash crowd — a movie premiere served by a self-growing P2P system.

The scenario the paper's introduction motivates: a popular video goes live
with only a hundred seed suppliers while tens of thousands of peers pile
in right at release (the registry's ``flash_crowd`` scenario — an initial
arrival burst followed by a long tail).  A fixed server farm would need
capacity for the peak; the peer-to-peer system *grows its own capacity*
out of the audience.

The example compares DAC_p2p against NDAC_p2p and prints the capacity race,
per-class service quality, and the signalling bill.

Run:  python examples/flash_crowd.py [--scale 0.05] [--scenario diurnal]
"""

import argparse

from repro import Study
from repro.analysis.plots import ascii_chart, render_table
from repro.analysis.stats import value_at_hour
from repro.scenarios import get_scenario, scenario_names


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05,
                        help="population scale (1.0 = 50,100 peers)")
    parser.add_argument("--scenario", default="flash_crowd",
                        choices=scenario_names(),
                        help="workload to premiere under")
    args = parser.parse_args()

    config = get_scenario(args.scenario).build_config(scale=args.scale)
    print("Scenario:", config.describe())
    print(f"Peers: {config.total_peers}; if every peer eventually supplies, "
          "capacity grows ~15x beyond the seeds.\n")

    # a Study grid over the protocol axis; records hold the same metrics
    # type as live results, so the report code below doesn't care
    result_set = (
        Study.from_config(config, scenario=args.scenario)
        .protocols("dac", "ndac")
        .run()
    )
    results = {record.protocol: record for record in result_set}

    chart = ascii_chart(
        {name: r.metrics.capacity_series for name, r in results.items()},
        title="Streaming capacity during the premiere (sessions)",
        y_label="sessions",
    )
    print(chart)
    print()

    hours = [12, 24, 36, 48, 72, 96, 144]
    rows = []
    for hour in hours:
        dac_value = value_at_hour(results["dac"].metrics.capacity_series, hour)
        ndac_value = value_at_hour(results["ndac"].metrics.capacity_series, hour)
        advantage = dac_value / ndac_value if ndac_value else float("inf")
        rows.append([f"{hour}h", f"{dac_value:.0f}", f"{ndac_value:.0f}",
                     f"{advantage:.2f}x"])
    print(render_table(["hour", "DAC_p2p", "NDAC_p2p", "DAC advantage"], rows,
                       title="Capacity race"))
    print()

    rows = []
    for name, result in results.items():
        waits = result.metrics.mean_waiting_seconds()
        delays = result.metrics.mean_buffering_delay_slots()
        rows.append([
            name,
            f"{sum(result.metrics.admitted.values())}",
            f"{waits[1] / 60:.0f} / {waits[4] / 60:.0f} min",
            f"{delays[1]:.2f} / {delays[4]:.2f} x dt",
            f"{result.message_stats['messages']:.0f}",
        ])
    print(render_table(
        ["protocol", "admitted", "wait cls1/cls4", "delay cls1/cls4",
         "control msgs"],
        rows,
        title="Service quality and signalling bill",
    ))
    print()
    dac = results["dac"]
    print(f"DAC_p2p finished at {100 * dac.capacity_fraction_of_max:.1f}% of the "
          "theoretical maximum capacity — the audience became the CDN.")


if __name__ == "__main__":
    main()
