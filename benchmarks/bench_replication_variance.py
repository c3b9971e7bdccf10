"""Extension — seed sensitivity of the headline comparisons.

Replicates the DAC vs NDAC comparison over several master seeds and checks
that the paper's qualitative conclusions are not one-seed flukes: DAC's
final capacity and per-class rejection advantage hold in *every*
replication, and the run-to-run spread is small relative to the effect.

The grid — {dac, ndac} × seeds — is one
:class:`~repro.orchestration.study.Study` over the shared on-disk record
store, and the mean ± CI columns come from
:meth:`~repro.orchestration.study.ResultSet.aggregate`.
"""

from __future__ import annotations

from benchmarks.conftest import emit_report, paper_config, repro_scale, study_store
from repro.analysis.plots import render_table
from repro.analysis.stats import value_at_hour
from repro.orchestration.study import Study

REPLICATIONS = 3


def test_replicated_dac_vs_ndac(benchmark):
    """3-seed replication of the pattern-2 capacity/rejection comparison."""
    # Replications multiply runtime; run at a reduced scale.
    scale_factor = min(repro_scale(), 0.04)
    base = paper_config(arrival_pattern=2).scaled(scale_factor / repro_scale())

    def run():
        return (
            Study.from_config(base)
            .protocols("dac", "ndac")
            .seeds(REPLICATIONS)
            .run(store=study_store())
        )

    result_set = benchmark.pedantic(run, rounds=1, iterations=1)

    def column(protocol, metric):
        aggregates = result_set.filter(protocol=protocol).aggregate(metric)
        (aggregate,) = aggregates.values()
        return aggregate

    rows = []
    for protocol in ("dac", "ndac"):
        rows.append(
            [
                protocol,
                str(column(protocol, "final_capacity")),
                str(column(
                    protocol,
                    lambda r: r.metrics.mean_rejections_before_admission()[1],
                )),
                str(column(
                    protocol,
                    lambda r: r.metrics.mean_rejections_before_admission()[4],
                )),
                str(column(
                    protocol,
                    lambda r: r.metrics.mean_buffering_delay_slots()[1],
                )),
            ]
        )
    text = render_table(
        ["protocol", "final capacity", "rejections cls1", "rejections cls4",
         "delay cls1"],
        rows,
        title=(
            f"Extension — {REPLICATIONS}-seed replication (mean ± 95% CI), "
            "pattern 2"
        ),
    )
    emit_report("replication_variance", text)

    dac_records = list(result_set.filter(protocol="dac"))
    ndac_records = list(result_set.filter(protocol="ndac"))
    assert len(dac_records) == len(ndac_records) == REPLICATIONS

    # The class-1 < class-4 rejection ordering holds in every DAC seed.
    for record in dac_records:
        rejections = record.metrics.mean_rejections_before_admission()
        assert rejections[1] < rejections[4]

    # DAC beats NDAC on mean rejections for every class.
    for peer_class in (1, 2, 3, 4):
        def class_rejections(record, c=peer_class):
            return record.metrics.mean_rejections_before_admission()[c]

        assert (
            column("dac", class_rejections).mean
            < column("ndac", class_rejections).mean
        )

    # DAC's mean capacity curve across seeds dominates NDAC's mid-ramp.
    def mean_capacity(records, hour):
        return sum(
            value_at_hour(r.metrics.capacity_series, hour, default=0.0)
            for r in records
        ) / len(records)

    for hour in (24.0, 36.0, 48.0, 60.0, 72.0):
        assert mean_capacity(dac_records, hour) >= mean_capacity(ndac_records, hour)
