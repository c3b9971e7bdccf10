"""Declarative experiment grids: the ``Study`` builder and its results.

The paper's whole evaluation is a grid — protocols × arrival patterns ×
parameter sweeps × seeds — and every entry point used to hand-roll its
own corner of it.  A :class:`Study` declares the grid once:

>>> from repro.orchestration.study import Study
>>> study = (Study.from_scenario("flash_crowd", scale=0.02)
...          .protocols("dac", "ndac")
...          .sweep("probe_candidates", [4, 8, 16, 32])
...          .seeds(5))
>>> result_set = study.run(jobs=4)          # doctest: +SKIP

and expands to an ordered list of :class:`~repro.orchestration.runspec.RunSpec`
objects, executes them through the existing
:func:`~repro.orchestration.batch.run_batch` pool, and returns a
:class:`ResultSet` of lightweight, JSON-serializable :class:`RunRecord`
objects.  Passing a :class:`~repro.orchestration.store.ResultStore` to
:meth:`Study.run` memoizes records on disk keyed by spec hash, so a
repeated invocation is served without running a single simulation.

Records carry full provenance (the exact configuration, the package
version, wall time) plus every scalar and series the paper's reports
consume.  :attr:`RunRecord.metrics` is the run's
:class:`~repro.simulation.probes.RunMetrics`, the same object a fresh
:class:`~repro.simulation.runner.SimulationResult` holds, and a record
loaded from a store rebuilds one from its JSON payload.  So the report
renderers in :mod:`repro.analysis.report` read a cached record and a
fresh result through one type.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import itertools
import json
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro._version import __version__
from repro.errors import ConfigurationError
from repro.orchestration.batch import run_batch
from repro.orchestration.runspec import RunSpec, config_from_dict, config_to_dict
from repro.simulation.config import SimulationConfig
from repro.simulation.probes import RunMetrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.orchestration.store import ResultStore
    from repro.simulation.runner import SimulationResult

__all__ = ["Aggregate", "RunRecord", "ResultSet", "Study", "group_key"]

#: the JSON schema identifier stamped into every exported result set
STUDY_SCHEMA = "repro.study.v1"


@dataclass(frozen=True)
class RunRecord:
    """Everything one run produced, in a JSON-serializable envelope.

    A record is self-describing: it embeds the exact configuration that
    produced it (``config_data``), the package version, the spec hash it
    is cached under, wall time, the run's metrics and the transport's
    message statistics.  ``result`` holds the live
    :class:`~repro.simulation.runner.SimulationResult` when the record
    was computed in-process; it is ``None`` for records loaded from a
    :class:`~repro.orchestration.store.ResultStore` and is never
    serialized.
    """

    spec_hash: str
    scenario: str | None
    axes: tuple[tuple[str, object], ...]
    config_data: dict
    scalars: dict[str, float]
    metrics: RunMetrics
    message_stats: dict[str, float] | None
    events_processed: int
    wall_seconds: float
    version: str
    result: "SimulationResult | None" = field(
        default=None, compare=False, repr=False
    )

    # ------------------------------------------------------------------
    @classmethod
    def from_result(cls, spec: RunSpec, result: "SimulationResult") -> "RunRecord":
        """Stamp a freshly computed simulation result into a record."""
        scalars = {
            "final_capacity": result.metrics.final_capacity(),
            "max_capacity": float(result.max_capacity),
            "capacity_fraction_of_max": result.capacity_fraction_of_max,
        }
        return cls(
            spec_hash=spec.spec_hash,
            scenario=spec.scenario,
            axes=spec.axes,
            config_data=config_to_dict(result.config),
            scalars=scalars,
            metrics=result.metrics,
            message_stats=dict(result.message_stats)
            if result.message_stats is not None
            else None,
            events_processed=result.events_processed,
            wall_seconds=result.wall_seconds,
            version=__version__,
            result=result,
        )

    # ------------------------------------------------------------------
    # identity / provenance
    # ------------------------------------------------------------------
    @property
    def protocol(self) -> str:
        """Admission policy the run used."""
        return str(self.config_data["protocol"])

    @property
    def seed(self) -> int:
        """Master RNG seed the run used."""
        return int(self.config_data["master_seed"])

    @property
    def arrival_pattern(self) -> int:
        """First-request arrival pattern the run used."""
        return int(self.config_data["arrival_pattern"])

    @property
    def config(self) -> SimulationConfig:
        """The exact configuration, rebuilt from the stored provenance."""
        return config_from_dict(self.config_data)

    def axis(self, name: str) -> object:
        """Value of one study axis for this record."""
        for axis_name, value in self.axes:
            if axis_name == name:
                return value
        raise ConfigurationError(
            f"record has no axis {name!r}; axes: "
            f"{[axis_name for axis_name, _ in self.axes]}"
        )

    def with_spec(self, spec: RunSpec) -> "RunRecord":
        """The same measurements rebound to another spec's provenance.

        Used when a cached record (stored by a differently shaped study)
        is served into this study's result set: measurements are
        identical by construction (same spec hash), only the scenario
        label and axis tuple are realigned.
        """
        return dataclasses.replace(self, scenario=spec.scenario, axes=spec.axes)

    # ---- the scalars a SimulationResult derives, read back from the record
    @property
    def max_capacity(self) -> int:
        """Capacity ceiling if every peer became a supplier."""
        return int(self.scalars["max_capacity"])

    @property
    def capacity_fraction_of_max(self) -> float:
        """Final capacity as a fraction of the ceiling."""
        return float(self.scalars["capacity_fraction_of_max"])

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict (drops the live ``result`` reference)."""
        return {
            "spec_hash": self.spec_hash,
            "scenario": self.scenario,
            "axes": [[name, value] for name, value in self.axes],
            "config": self.config_data,
            "scalars": dict(self.scalars),
            "metrics": self.metrics.to_dict(),
            "message_stats": self.message_stats,
            "events_processed": self.events_processed,
            "wall_seconds": self.wall_seconds,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output (JSON round-trip)."""
        return cls(
            spec_hash=str(data["spec_hash"]),
            scenario=data.get("scenario"),
            axes=tuple((str(name), value) for name, value in data.get("axes", ())),
            config_data=dict(data["config"]),
            scalars={str(k): float(v) for k, v in data["scalars"].items()},
            metrics=RunMetrics(data["metrics"]),
            message_stats=dict(data["message_stats"])
            if data.get("message_stats") is not None
            else None,
            events_processed=int(data["events_processed"]),
            wall_seconds=float(data["wall_seconds"]),
            version=str(data["version"]),
        )

    def fingerprint(self) -> str:
        """Digest of everything except wall time.

        Wall time is the one field that legitimately differs between a
        serial and a parallel execution of the same spec; every other
        byte must match, and this digest is how tests assert that.
        """
        payload = self.to_dict()
        del payload["wall_seconds"]
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Aggregate:
    """Mean ± normal-approximation CI half-width of one scalar."""

    mean: float
    half_width: float
    samples: tuple[float, ...]

    def __str__(self) -> str:
        return f"{self.mean:.2f} ± {self.half_width:.2f}"


@dataclass(frozen=True)
class ResultSet:
    """An ordered, immutable collection of run records.

    Supports tabular flattening (:meth:`to_rows`), JSON/CSV export,
    axis-based :meth:`filter`, and seed-collapsing :meth:`aggregate`
    (mean ± CI of any scalar across seeds).
    """

    records: tuple[RunRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index: int) -> RunRecord:
        return self.records[index]

    # ------------------------------------------------------------------
    def results(self) -> list["SimulationResult | None"]:
        """Live simulation results (``None`` for cache-served records)."""
        return [record.result for record in self.records]

    # ------------------------------------------------------------------
    def _lookup(self, record: RunRecord, name: str) -> object:
        axes = dict(record.axes)
        if name in axes:
            return axes[name]
        if name == "scenario":
            return record.scenario
        if name == "seed":
            return record.seed
        if name in record.config_data:
            return record.config_data[name]
        if name in record.scalars:
            return record.scalars[name]
        raise ConfigurationError(
            f"unknown record key {name!r}; known: axes "
            f"{[axis for axis, _ in record.axes]}, 'scenario', 'seed', "
            "any config field, any scalar metric"
        )

    def filter(
        self,
        predicate: Callable[[RunRecord], bool] | None = None,
        **criteria: object,
    ) -> "ResultSet":
        """Records matching a predicate and/or axis/field equality criteria.

        >>> result_set.filter(protocol="dac", arrival_pattern=2)  # doctest: +SKIP
        """
        kept = []
        for record in self.records:
            if predicate is not None and not predicate(record):
                continue
            if all(
                self._lookup(record, name) == wanted
                for name, wanted in criteria.items()
            ):
                kept.append(record)
        return ResultSet(records=tuple(kept))

    def aggregate(
        self,
        metric: str | Callable[[RunRecord], float] = "final_capacity",
        by: Sequence[str] | None = None,
    ) -> dict[tuple[tuple[str, object], ...], Aggregate]:
        """Collapse seeds into mean ± CI, grouped by the remaining axes.

        ``metric`` is a scalar name from :attr:`RunRecord.scalars` or a
        callable extracting a float from a record.  ``by`` overrides the
        grouping key (default: scenario plus every axis except the seed),
        named like :meth:`filter` criteria.  Returns an ordered mapping
        of group key — a tuple of ``(name, value)`` pairs, made hashable
        by :func:`group_key` — to :class:`Aggregate`.
        """
        from repro.analysis.stats import mean_confidence_interval

        if callable(metric):
            extract = metric
        else:
            def extract(record: RunRecord, _name: str = metric) -> float:
                if _name not in record.scalars:
                    raise ConfigurationError(
                        f"unknown scalar metric {_name!r}; known: "
                        f"{sorted(record.scalars)} (or pass a callable)"
                    )
                return record.scalars[_name]

        groups: dict[tuple[tuple[str, object], ...], list[float]] = {}
        for record in self.records:
            if by is not None:
                key = group_key((name, self._lookup(record, name)) for name in by)
            else:
                key = (("scenario", record.scenario),) + group_key(
                    (name, value) for name, value in record.axes if name != "seed"
                )
            groups.setdefault(key, []).append(extract(record))
        summaries = {}
        for key, values in groups.items():
            mean, half = mean_confidence_interval(values)
            summaries[key] = Aggregate(
                mean=mean, half_width=half, samples=tuple(values)
            )
        return summaries

    # ------------------------------------------------------------------
    # tabular / serialized forms
    # ------------------------------------------------------------------
    def to_rows(self) -> list[dict[str, object]]:
        """One flat dict per record: provenance, axes, headline scalars."""
        rows = []
        for record in self.records:
            row: dict[str, object] = {
                "spec_hash": record.spec_hash,
                "scenario": record.scenario,
                "protocol": record.protocol,
                "seed": record.seed,
                "arrival_pattern": record.arrival_pattern,
            }
            for name, value in record.axes:
                row[name] = value
            row.update(record.scalars)
            metrics = record.metrics
            for peer_class, value in sorted(metrics.admission_rate_percent().items()):
                row[f"admission_rate_class_{peer_class}"] = value
            rejections = metrics.mean_rejections_before_admission()
            for peer_class, value in sorted(rejections.items()):
                row[f"rejections_class_{peer_class}"] = value
            delays = metrics.mean_buffering_delay_slots()
            for peer_class, value in sorted(delays.items()):
                row[f"delay_class_{peer_class}"] = value
            row["events_processed"] = record.events_processed
            row["wall_seconds"] = record.wall_seconds
            row["version"] = record.version
            rows.append(row)
        return rows

    def to_json(self, path: str | Path | None = None) -> str:
        """Schema-stamped JSON of every record; optionally written to ``path``.

        Compact, with sorted keys, as
        :class:`~repro.orchestration.store.ResultStore` writes a
        record: an ``indent`` would leave CPython's C encoder unused.
        """
        payload = {
            "schema": STUDY_SCHEMA,
            "version": __version__,
            "count": len(self.records),
            "records": [record.to_dict() for record in self.records],
        }
        text = json.dumps(payload, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text

    def to_csv(self, path: str | Path | None = None) -> str:
        """Flat CSV of :meth:`to_rows`; optionally written to ``path``."""
        rows = self.to_rows()
        columns: list[str] = []
        for row in rows:
            for name in row:
                if name not in columns:
                    columns.append(name)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buffer.getvalue()
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text


class Study:
    """Chainable builder for a grid of simulation runs.

    Build from a named scenario (or several) or from a raw config, add
    axes — protocols, parameter sweeps, seeds — and :meth:`run` the
    expanded grid.  Axes expand in declaration order with seeds
    innermost, so the spec list (and therefore every result set, export
    and cache layout) is deterministic.

    The builder mutates in place and returns itself, so chains read as
    one declaration::

        Study.from_scenario("flash_crowd").protocols("dac", "ndac") \\
             .sweep("probe_candidates", [4, 8, 16, 32]).seeds(5)
    """

    def __init__(
        self,
        base_config: SimulationConfig | None = None,
        scenario_names: Sequence[str] | None = None,
        scale: float = 1.0,
        scenario_label: str | None = None,
    ) -> None:
        if (base_config is None) == (scenario_names is None):
            raise ConfigurationError(
                "a Study starts from either a config or scenario names; "
                "use Study.from_config(...) or Study.from_scenario(...)"
            )
        self._base_config = base_config
        self._scenario_names = list(scenario_names) if scenario_names else None
        self._scenario_label = scenario_label
        self._scale = scale
        self._overrides: dict[str, object] = {}
        self._axes: list[tuple[str, list[object]]] = []
        self._seed_count: int | None = None
        self._seed_stride: int = 1
        self._seed_list: list[int] | None = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_config(
        cls, config: SimulationConfig, scenario: str | None = None
    ) -> "Study":
        """Start from an already expanded config (``scenario`` labels only)."""
        return cls(base_config=config, scenario_label=scenario)

    @classmethod
    def from_scenario(cls, name: str, scale: float = 1.0) -> "Study":
        """Start from one registered scenario at ``scale``."""
        return cls(scenario_names=[name], scale=scale)

    @classmethod
    def from_scenarios(cls, names: Sequence[str], scale: float = 1.0) -> "Study":
        """Start from several scenarios (the outermost grid axis)."""
        names = list(names)
        _reject_duplicates("scenario", names)
        if not names:
            raise ConfigurationError("a Study needs at least one scenario")
        return cls(scenario_names=names, scale=scale)

    # ------------------------------------------------------------------
    # grid axes
    # ------------------------------------------------------------------
    def protocols(self, *names: str) -> "Study":
        """Sweep the admission protocol axis."""
        return self.sweep("protocol", names)

    def sweep(self, parameter: str, values: Iterable[object]) -> "Study":
        """Sweep one config field over ``values`` (declaration-ordered axis)."""
        valid = sorted(f.name for f in dataclasses.fields(SimulationConfig))
        if parameter == "master_seed":
            raise ConfigurationError(
                "sweep the seed axis with Study.seeds(), not sweep('master_seed')"
            )
        if parameter not in valid:
            raise ConfigurationError(
                f"unknown sweep parameter {parameter!r}; valid config fields: "
                f"{', '.join(valid)}"
            )
        value_list = list(values)
        if not value_list:
            raise ConfigurationError(
                f"sweep of {parameter!r} needs at least one value"
            )
        _reject_duplicates(parameter, value_list)
        if any(name == parameter for name, _ in self._axes):
            raise ConfigurationError(
                f"parameter {parameter!r} is already a study axis"
            )
        self._axes.append((parameter, value_list))
        return self

    def seeds(
        self, count_or_seeds: int | Iterable[int], stride: int = 1
    ) -> "Study":
        """Replicate every grid point over several master seeds.

        An ``int`` derives that many seeds from each point's base seed
        (``base + i * stride``); an iterable gives explicit seeds.
        """
        if isinstance(count_or_seeds, int):
            if count_or_seeds < 1:
                raise ValueError(
                    f"need at least one seed, got {count_or_seeds}"
                )
            self._seed_count = count_or_seeds
            self._seed_stride = stride
            self._seed_list = None
        else:
            seed_list = [int(seed) for seed in count_or_seeds]
            if not seed_list:
                raise ValueError("need at least one explicit seed")
            _reject_duplicates("seed", seed_list)
            self._seed_list = seed_list
            self._seed_count = None
        return self

    def override(self, **changes: object) -> "Study":
        """Fix config fields for every run (applied before the axes)."""
        valid = {f.name for f in dataclasses.fields(SimulationConfig)}
        for name in changes:
            if name not in valid:
                raise ConfigurationError(
                    f"unknown config field {name!r}; valid: "
                    f"{', '.join(sorted(valid))}"
                )
        self._overrides.update(changes)
        return self

    # ------------------------------------------------------------------
    # expansion and execution
    # ------------------------------------------------------------------
    def _base_configs(self) -> list[tuple[str | None, SimulationConfig]]:
        if self._scenario_names is not None:
            from repro.scenarios import get_scenario

            return [
                (name, get_scenario(name).build_config(scale=self._scale))
                for name in self._scenario_names
            ]
        assert self._base_config is not None
        return [(self._scenario_label, self._base_config)]

    def _seeds_for(self, config: SimulationConfig) -> list[int] | None:
        if self._seed_list is not None:
            return list(self._seed_list)
        if self._seed_count is not None:
            return [
                config.master_seed + i * self._seed_stride
                for i in range(self._seed_count)
            ]
        return None

    def specs(self) -> list[RunSpec]:
        """The ordered expansion of the grid into frozen run specs."""
        specs: list[RunSpec] = []
        axis_names = [name for name, _ in self._axes]
        value_lists = [values for _, values in self._axes]
        for scenario_name, base in self._base_configs():
            if self._overrides:
                base = base.replace(**self._overrides)
            for combo in itertools.product(*value_lists):
                changes = dict(zip(axis_names, combo))
                config = base.replace(**changes) if changes else base
                seeds = self._seeds_for(config)
                axis_values = tuple(zip(axis_names, combo))
                if seeds is None:
                    specs.append(
                        RunSpec(
                            config=config,
                            scenario=scenario_name,
                            axes=axis_values,
                        )
                    )
                    continue
                for seed in seeds:
                    seeded = (
                        config
                        if seed == config.master_seed
                        else config.replace(master_seed=seed)
                    )
                    specs.append(
                        RunSpec(
                            config=seeded,
                            scenario=scenario_name,
                            axes=axis_values + (("seed", seed),),
                        )
                    )
        return specs

    def run(
        self, jobs: int = 1, store: "ResultStore | None" = None
    ) -> ResultSet:
        """Execute the grid and return its records in spec order.

        ``jobs>1`` fans uncached runs over worker processes via
        :func:`~repro.orchestration.batch.run_batch`; records are
        identical to the serial path up to wall time.  With a ``store``,
        already-computed specs are served from disk, and fresh records
        land there, so a killed single-host run repeated over the same
        store executes only what is missing.  Sharded workers re-enter a
        grid through the claim protocol instead
        (:func:`~repro.orchestration.shard.shard_run`), and
        :meth:`collect` serves what they stored.
        """
        specs = self.specs()
        records: list[RunRecord | None] = [None] * len(specs)
        if store is not None:
            for index, spec in enumerate(specs):
                cached = store.get(spec.spec_hash)
                if cached is not None:
                    records[index] = cached.with_spec(spec)
        missing = [index for index, record in enumerate(records) if record is None]
        results = run_batch(
            [specs[index].config for index in missing],
            jobs=jobs,
            labels=[specs[index].label() for index in missing],
        )
        for index, result in zip(missing, results):
            record = RunRecord.from_result(specs[index], result)
            records[index] = record
            if store is not None:
                store.put(record)
        return ResultSet(records=tuple(records))  # type: ignore[arg-type]

    def collect(self, store: "ResultStore") -> ResultSet:
        """The grid's records served purely from a store, in spec order.

        This is how a merged multi-host store becomes a
        :class:`ResultSet` without re-running anything.  A spec absent
        from the store raises :class:`ConfigurationError` naming the
        gap.
        """
        specs = self.specs()
        records = []
        missing = []
        for spec in specs:
            cached = store.get(spec.spec_hash)
            if cached is not None:
                records.append(cached.with_spec(spec))
            else:
                missing.append(spec)
        if missing:
            raise ConfigurationError(
                f"store {store.root} is missing {len(missing)} of "
                f"{len(specs)} grid specs (first: {missing[0].label()}); "
                "finish the grid with shard_run (CLI: study shard) first"
            )
        return ResultSet(records=tuple(records))


def group_key(
    pairs: Iterable[tuple[str, object]],
) -> tuple[tuple[str, object], ...]:
    """``(name, value)`` pairs as a hashable key that groups records.

    A per-class dict value (a ``seed_suppliers`` or ``requesting_peers``
    sweep) becomes its repr in class order, so a group's label prints it
    as the per-run table does.
    """
    return tuple(
        (name, repr(dict(sorted(value.items()))) if isinstance(value, dict)
         else value)
        for name, value in pairs
    )


def _reject_duplicates(label: str, values: Sequence[object]) -> None:
    """Duplicate axis values silently collapsed dict keys before; now they raise."""
    seen: list[object] = []
    for value in values:
        if value in seen:
            raise ConfigurationError(
                f"duplicate {label} value {value!r}; each axis value must be "
                "unique"
            )
        seen.append(value)
