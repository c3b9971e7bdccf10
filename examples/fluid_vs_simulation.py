#!/usr/bin/env python3
"""Fluid model vs discrete-event simulation — theory meeting practice.

Integrates the protocol-free mean-field model of the self-growing system
(``repro.analysis.fluid``) and overlays it on actual DAC_p2p and NDAC_p2p
runs.  The
fluid curve is the capacity growth the feedback loop *could* deliver if
admissions only waited for free supply; the gap each protocol leaves
against it prices the mechanisms the fluid model ignores — probing
granularity, admission denials, backoff quantization.

Run:  python examples/fluid_vs_simulation.py [--scale 0.05] [--pattern 2]
"""

import argparse

from repro import Study
from repro.analysis.fluid import fluid_capacity_model, mean_offer_sessions
from repro.analysis.plots import ascii_chart, render_table
from repro.analysis.stats import area_under_series, value_at_hour
from repro.scenarios import get_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--pattern", type=int, default=2, choices=[1, 2, 3, 4])
    args = parser.parse_args()

    config = get_scenario("paper_default").build_config(
        scale=args.scale, arrival_pattern=args.pattern
    )
    print("Workload:", config.describe())
    print(f"Mean requester offer: {mean_offer_sessions(config):.3f} sessions/peer "
          "(the feedback gain of the self-growing loop)\n")

    fluid = fluid_capacity_model(config)
    # one declarative grid: the same seeded workload under both protocols
    result_set = Study.from_config(config).protocols("dac", "ndac").run()
    results = {record.protocol: record for record in result_set}

    print(ascii_chart(
        {
            "fluid": fluid.capacity,
            "dac": results["dac"].metrics.capacity_series,
            "ndac": results["ndac"].metrics.capacity_series,
        },
        title="Capacity: mean-field envelope vs simulated protocols",
        y_label="sessions",
    ))
    print()

    rows = []
    for hour in (12, 24, 36, 48, 60, 72, 96, 144):
        rows.append([
            f"{hour}h",
            f"{value_at_hour(fluid.capacity, hour):.0f}",
            f"{value_at_hour(results['dac'].metrics.capacity_series, hour):.0f}",
            f"{value_at_hour(results['ndac'].metrics.capacity_series, hour):.0f}",
        ])
    print(render_table(["hour", "fluid envelope", "DAC_p2p", "NDAC_p2p"], rows))

    fluid_area = area_under_series(fluid.capacity)
    for name, result in results.items():
        gap = fluid_area - area_under_series(result.metrics.capacity_series)
        print(f"\n{name}: leaves {100 * gap / fluid_area:.1f}% of the fluid "
              "envelope's capacity-hours unrealized")
    print("\nDAC's smaller gap is the paper's headline claim in one number:")
    print("differentiated admission wastes less of the achievable growth.")


if __name__ == "__main__":
    main()
