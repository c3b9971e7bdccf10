"""The benchmark's metrics: names, units, and how each value is computed.

End-to-end metrics come from an untraced run; per-layer metrics from a
traced run (see ``README.md`` for what each one measures and what should
move it).  Per-layer totals and counts are per traced cycle.
"""

from __future__ import annotations

import resource
import statistics

from tracing import percentile, tail_percentile

END_TO_END = (
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("run_s", "s"),
    ("report_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: layers whose single calls are many enough to report a p50 and a tail
PER_CALL_LAYERS = (
    "network.lookup",
    "network.transport",
    "simulation.probes",
    "simulation.lifecycle",
    "orchestration.store_get",
)

PER_LAYER = (
    ("repro.import_s", "s"),
    ("scenarios.build_config_s", "s"),
    ("orchestration.specs_s", "s"),
    ("simulation.construct_s", "s"),
    ("simulation.construct_rss_mb", "MiB"),
    ("simulation.dispatch_s", "s"),
    ("simulation.dispatch_self_s", "s"),
    ("simulation.events", "count"),
    ("simulation.requests", "count"),
    ("simulation.admissions", "count"),
    ("simulation.admit_ratio", "ratio"),
    ("network.lookup_calls", "count"),
    ("network.lookup_s", "s"),
    ("network.messages", "count"),
    ("network.transport_calls", "count"),
    ("network.transport_s", "s"),
    ("simulation.probes.calls", "count"),
    ("simulation.probes.time_s", "s"),
    ("simulation.lifecycle.calls", "count"),
    ("simulation.lifecycle.time_s", "s"),
    ("simulation.lifecycle.interruptions", "count"),
    ("simulation.lifecycle.recovered", "count"),
    ("simulation.lifecycle.lost", "count"),
    ("orchestration.batch_s", "s"),
    ("orchestration.pool_util", "ratio"),
    ("orchestration.record_s", "s"),
    ("orchestration.store_put_calls", "count"),
    ("orchestration.store_put_s", "s"),
    ("orchestration.store_put_bytes", "bytes"),
    ("orchestration.store_get_calls", "count"),
    ("orchestration.store_get_s", "s"),
    ("orchestration.store_hit_ratio", "ratio"),
    ("orchestration.export_s", "s"),
    ("orchestration.export_bytes", "bytes"),
    ("analysis.render_s", "s"),
    ("trace.overhead_ratio", "ratio"),
) + tuple(
    (f"{layer}.{suffix}", unit)
    for layer in PER_CALL_LAYERS
    for suffix, unit in (("p50_us", "us"), ("tail_us", "us"), ("tail_pct", "%"))
)


def median(values) -> float:
    """The median, or 0.0 when nothing was measured (the run then failed)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    """The mean, or 0.0 when nothing was measured."""
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def peak_rss_mib() -> float:
    """Peak resident memory of this process and its waited-for children."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def end_to_end(samples: dict[str, list[float]], setup_seconds: list[float]) -> dict:
    """Every end-to-end metric from an untraced run's samples."""
    return {
        "setup_s": median(setup_seconds),
        "events_per_s": median(samples.get("events_per_s", ())),
        "run_s": median(samples.get("run_s", ())),
        "report_s": median(samples.get("report_s", ())),
        "peak_rss_mb": peak_rss_mib(),
    }


def per_layer(
    stats: dict[str, dict],
    trace_samples: dict[str, list[float]],
    cycles: list[dict[str, float]],
    setups: list[dict],
    overhead_ratio: float,
    jobs: int,
) -> dict:
    """Every per-layer metric from a traced run.

    ``stats`` is :meth:`tracing.Tracer.layer_stats`, ``cycles`` the
    counts of each traced cycle, ``setups`` the traced set-up probes.
    """
    import numpy as np

    n = max(1, len(cycles))

    def total(layer: str) -> float:
        return stats[layer]["total_s"] / n

    def calls(layer: str) -> float:
        return stats[layer]["calls"] / n

    def per_cycle(key: str) -> float:
        return sum(cycle[key] for cycle in cycles) / n

    batch_s = total("orchestration.batch")
    values = {
        "repro.import_s": median(probe["import_s"] for probe in setups),
        "scenarios.build_config_s": median(
            probe.get("build_config_s", 0.0) for probe in setups
        ),
        "orchestration.specs_s": median(probe.get("specs_s", 0.0) for probe in setups),
        "simulation.construct_s": total("simulation.construct"),
        "simulation.construct_rss_mb": mean(trace_samples.get("construct_rss_mb", ())),
        "simulation.dispatch_s": total("simulation.dispatch"),
        "simulation.dispatch_self_s": stats["simulation.dispatch"]["self_s"] / n,
        "simulation.events": per_cycle("events"),
        "simulation.requests": per_cycle("requests"),
        "simulation.admissions": per_cycle("admissions"),
        "simulation.admit_ratio": (
            per_cycle("admissions") / per_cycle("requests")
            if per_cycle("requests") else 0.0
        ),
        "network.lookup_calls": calls("network.lookup"),
        "network.lookup_s": total("network.lookup"),
        "network.messages": per_cycle("messages"),
        "network.transport_calls": calls("network.transport"),
        "network.transport_s": total("network.transport"),
        "simulation.probes.calls": calls("simulation.probes"),
        "simulation.probes.time_s": total("simulation.probes"),
        "simulation.lifecycle.calls": calls("simulation.lifecycle"),
        "simulation.lifecycle.time_s": total("simulation.lifecycle"),
        "simulation.lifecycle.interruptions": per_cycle("interruptions"),
        "simulation.lifecycle.recovered": per_cycle("recovered"),
        "simulation.lifecycle.lost": per_cycle("lost"),
        "orchestration.batch_s": batch_s,
        "orchestration.pool_util": (
            per_cycle("run_wall_s") / (jobs * batch_s) if batch_s else 0.0
        ),
        "orchestration.record_s": total("orchestration.record"),
        "orchestration.store_put_calls": calls("orchestration.store_put"),
        "orchestration.store_put_s": total("orchestration.store_put"),
        "orchestration.store_put_bytes": mean(trace_samples.get("store_put_bytes", ())),
        "orchestration.store_get_calls": calls("orchestration.store_get"),
        "orchestration.store_get_s": total("orchestration.store_get"),
        "orchestration.store_hit_ratio": mean(trace_samples.get("store_get_hit", ())),
        "orchestration.export_s": total("orchestration.export"),
        "orchestration.export_bytes": mean(trace_samples.get("export_bytes", ())),
        "analysis.render_s": total("analysis.render"),
        "trace.overhead_ratio": overhead_ratio,
    }
    for layer in PER_CALL_LAYERS:
        durations = np.sort(stats[layer]["durations"])
        tail = tail_percentile(len(durations))
        values[f"{layer}.p50_us"] = percentile(durations, 50.0) * 1e6
        values[f"{layer}.tail_us"] = (
            percentile(durations, tail) * 1e6 if tail is not None else 0.0
        )
        values[f"{layer}.tail_pct"] = tail if tail is not None else 0.0
    return values
