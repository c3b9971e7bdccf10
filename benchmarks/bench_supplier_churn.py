"""Extension — capacity amplification under supplier churn.

The paper's model keeps every supplier online forever.  Real peers leave.
This extension gives suppliers exponential online/offline lifetimes (the
``graceful`` lifecycle model: a busy supplier finishes its session before
it departs) and
measures how the self-growing property survives: the steady population is
scaled by the availability factor ``online / (online + offline)``, so the
achievable plateau drops accordingly, but DAC_p2p keeps its advantage over
NDAC_p2p because differentiation acts on whoever is online.
"""

from __future__ import annotations

from benchmarks.conftest import cached_run, emit_report, paper_config
from repro.analysis.plots import render_table
from repro.analysis.stats import area_under_series, value_at_hour

HOUR = 3600.0


def test_supplier_churn(benchmark):
    """Sweep supplier mean online time; compare DAC vs NDAC under churn."""

    def run():
        settings = {
            "no churn": dict(lifecycle="none"),
            "48h online / 8h offline": dict(
                lifecycle="graceful",
                lifecycle_mean_up_seconds=48 * HOUR,
                lifecycle_mean_down_seconds=8 * HOUR,
            ),
            "12h online / 8h offline": dict(
                lifecycle="graceful",
                lifecycle_mean_up_seconds=12 * HOUR,
                lifecycle_mean_down_seconds=8 * HOUR,
            ),
        }
        results = {}
        for label, knobs in settings.items():
            for protocol in ("dac", "ndac"):
                results[(label, protocol)] = cached_run(
                    paper_config(protocol=protocol, arrival_pattern=2, **knobs)
                )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    labels = ["no churn", "48h online / 8h offline", "12h online / 8h offline"]
    rows = []
    for label in labels:
        dac = results[(label, "dac")]
        ndac = results[(label, "ndac")]
        departures = sum(dac.metrics.supplier_departures.values())
        rows.append(
            [
                label,
                f"{value_at_hour(dac.metrics.capacity_series, 72):.0f}",
                f"{dac.metrics.final_capacity():.0f}",
                f"{ndac.metrics.final_capacity():.0f}",
                f"{departures}",
            ]
        )
    text = render_table(
        ["supplier lifetime", "DAC @72h", "DAC final", "NDAC final",
         "departures (DAC)"],
        rows,
        title="Extension — capacity amplification under supplier churn "
              "(pattern 2)",
    )
    emit_report("supplier_churn", text)

    # Churn lowers the plateau monotonically with churn intensity.
    finals = [results[(label, "dac")].metrics.final_capacity() for label in labels]
    assert finals[0] >= finals[1] >= finals[2]
    # The 12h/8h case should sit near the availability-scaled ceiling
    # (12 / (12+8) = 60% of peers online in steady state) — well below the
    # churn-free plateau but far from collapse.
    assert finals[2] > 0.35 * finals[0]
    # DAC keeps dominating NDAC's growth under every churn level.
    for label in labels:
        dac_area = area_under_series(results[(label, "dac")].metrics.capacity_series)
        ndac_area = area_under_series(
            results[(label, "ndac")].metrics.capacity_series
        )
        assert dac_area >= ndac_area
