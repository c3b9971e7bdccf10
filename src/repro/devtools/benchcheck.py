"""Benchmark-JSON schema checks behind ``scripts/check_bench_json.py``.

Validates a benchmark export against its schema so the CI perf-smoke
job (and users) can trust the export contract stays stable.  The one
schema is ``repro.bench_engine_scaling.v1``, written by
``bench_engine_scaling.py``: per-engine setup/run timing splits,
array-vs-object speedups and the megacity end-to-end record.  The file's
``schema`` tag must name it.

Problems surface as :class:`~repro.devtools.reporting.Finding` objects;
the first schema violation stops the walk (everything after a structural
mismatch would be noise).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.devtools.reporting import Finding, report

__all__ = ["SchemaProblem", "check_file", "main"]

ENGINE_SCHEMA = "repro.bench_engine_scaling.v1"

ENGINE_RUN_FIELDS = {
    "scale": (int, float),
    "peers": int,
    "scenario": str,
    "engine": str,
    "events": int,
    "setup_seconds": (int, float),
    "run_seconds": (int, float),
    "wall_seconds": (int, float),
    "events_per_sec": (int, float),
}
ENGINE_SPEEDUP_FIELDS = {
    "scale": (int, float),
    "peers": int,
    "events_per_sec_object": (int, float),
    "events_per_sec_array": (int, float),
    "speedup_array_vs_object": (int, float),
    "speedup_total_wall": (int, float),
}
MEGACITY_FIELDS = {
    "scenario": str,
    "scale": (int, float),
    "peers": int,
    "engine": str,
    "completed": bool,
    "events": int,
    "setup_seconds": (int, float),
    "run_seconds": (int, float),
    "wall_seconds": (int, float),
    "events_per_sec": (int, float),
}


class SchemaProblem(ValueError):
    """A benchmark export violates its schema."""


def _fail(message: str) -> None:
    raise SchemaProblem(message)


def _check_fields(label: str, entry: object, fields: dict) -> None:
    if not isinstance(entry, dict):
        _fail(f"{label} is not an object")
    for name, types in fields.items():
        if name not in entry:
            _fail(f"{label} missing field {name!r}")
        value = entry[name]
        if types is not bool and isinstance(value, bool):
            _fail(f"{label}.{name} has type bool, expected {types}")
        if not isinstance(value, types):
            _fail(f"{label}.{name} has type {type(value).__name__}, "
                  f"expected {types}")


def _check_common_header(data: dict) -> list:
    """Schema-independent envelope: version, scenario, non-empty runs."""
    if not isinstance(data.get("version"), str):
        _fail("missing version stamp")
    if not isinstance(data.get("scenario"), str):
        _fail("missing scenario name")
    runs = data.get("runs")
    if not isinstance(runs, list) or not runs:
        _fail("runs must be a non-empty list")
    return runs


def _check_engine_scaling(data: dict) -> str:
    runs = _check_common_header(data)
    for index, run in enumerate(runs):
        _check_fields(f"runs[{index}]", run, ENGINE_RUN_FIELDS)
        if run["engine"] not in ("object", "array"):
            _fail(f"runs[{index}].engine is {run['engine']!r}")
        if run["events_per_sec"] <= 0 or run["run_seconds"] <= 0:
            _fail(f"runs[{index}] has non-positive throughput")
    speedups = data.get("speedups")
    if not isinstance(speedups, list) or not speedups:
        _fail("speedups must be a non-empty list")
    for index, entry in enumerate(speedups):
        _check_fields(f"speedups[{index}]", entry, ENGINE_SPEEDUP_FIELDS)
        if entry["speedup_array_vs_object"] <= 0:
            _fail(f"speedups[{index}] has non-positive speedup")
    megacity = data.get("megacity")
    _check_fields("megacity", megacity, MEGACITY_FIELDS)
    if megacity["engine"] != "array":
        _fail(f"megacity.engine is {megacity['engine']!r}, expected 'array'")
    if not megacity["completed"] or megacity["events"] <= 0:
        _fail("megacity run did not complete")
    return (f"{len(runs)} runs, {len(speedups)} speedup summaries, "
            f"megacity at scale {megacity['scale']}")


def check_file(path: Path) -> tuple[list[Finding], str]:
    """Validate one benchmark export; findings plus an ok-summary string."""

    def finding(message: str) -> tuple[list[Finding], str]:
        return [Finding(
            file=str(path), line=0, rule="bench-schema", message=message
        )], ""

    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return finding(f"cannot read {path}: {exc}")
    if not isinstance(data, dict):
        return finding("top level is not an object")
    schema = data.get("schema")
    if schema != ENGINE_SCHEMA:
        return finding(f"schema is {schema!r}, expected {ENGINE_SCHEMA!r}")
    try:
        summary = _check_engine_scaling(data)
    except SchemaProblem as exc:
        return finding(str(exc))
    return [], f"[{schema}] {summary}"


def main(argv: list[str]) -> int:
    """Validate the benchmark JSON file named on the command line."""
    if len(argv) != 2:
        print("usage: check_bench_json.py PATH/TO/BENCH_file.json")
        return 2
    findings, summary = check_file(Path(argv[1]))
    return report("check_bench_json", findings, ok_detail=summary)
