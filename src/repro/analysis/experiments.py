"""Paper artifacts: one grid preset per table/figure and one renderer.

This is the experiment index of ``docs/EXPERIMENTS.md`` in executable
form.  Each :class:`Experiment` is data: the config overrides and the
:class:`~repro.orchestration.study.Study` axes of one paper artifact,
plus the axes its figure plots.  :func:`render_artifacts` turns any
:class:`~repro.orchestration.study.ResultSet` into the labelled sections
of named artifacts, so ``python -m repro experiment <id>`` (the preset's
grid) and ``python -m repro study`` (the artifacts its axes imply) print
through one code path, and an experiment and the ``study`` line that
spells out its grid share :class:`~repro.orchestration.store.ResultStore`
records (CLI: ``--cache-dir``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis import report
from repro.errors import ConfigurationError
from repro.orchestration.study import ResultSet, RunRecord, Study, group_key
from repro.simulation.config import SimulationConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.orchestration.store import ResultStore

__all__ = [
    "Experiment",
    "EXPERIMENTS",
    "axes_label",
    "list_experiments",
    "render_artifacts",
    "run_experiment",
]

#: draws one section of an artifact from the records that share every
#: axis it does not plot; ``None`` when they cannot fill it
_Section = Callable[[list[RunRecord]], "str | None"]
#: the ``(name, value)`` axis pairs a group of records shares
_Key = tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class Experiment:
    """One regenerable paper artifact: its grid and how it is drawn.

    ``overrides`` fix config fields for every run and ``axes`` sweep the
    rest, in declaration order.  ``plots`` names the axes one section
    draws together, and ``section`` draws it.  An experiment without a
    ``section`` is worked out, not simulated (Figure 1).
    """

    experiment_id: str
    title: str
    section: _Section | None = None
    plots: tuple[str, ...] = ()
    overrides: dict[str, object] = field(default_factory=dict)
    axes: tuple[tuple[str, tuple[object, ...]], ...] = ()

    def study(self, config: SimulationConfig) -> Study:
        """This artifact's grid over ``config``."""
        study = Study.from_config(config).override(**self.overrides)
        for parameter, values in self.axes:
            study.sweep(parameter, values)
        return study


def _draw_figure4(records: list[RunRecord]) -> str:
    return report.figure4_report(
        {record.protocol: record for record in records},
        pattern=records[0].arrival_pattern,
    )


def _draw_table1(records: list[RunRecord]) -> str | None:
    # Table 1 compares DAC with NDAC, so it needs both at every pattern
    keyed = {(record.protocol, record.arrival_pattern): record for record in records}
    patterns = {pattern for _, pattern in keyed}
    if any((name, p) not in keyed for name in ("dac", "ndac") for p in patterns):
        return None
    return report.table1_report(keyed)


def _draw_figure8(parameter: str, label: str) -> _Section:
    def section(records: list[RunRecord]) -> str:
        return report.figure8_report(
            {record.axis(parameter): record for record in records},
            parameter_label=label,
        )

    return section


def _draw_figure9(records: list[RunRecord]) -> str:
    return report.figure9_report({record.axis("e_bkf"): record for record in records})


_PROTOCOLS = ("protocol", ("dac", "ndac"))
_PATTERN_2 = {"arrival_pattern": 2}

EXPERIMENTS: dict[str, Experiment] = {
    e.experiment_id: e
    for e in (
        Experiment("fig1", "Figure 1 — media data assignments"),
        Experiment(
            "fig4", "Figure 4 — capacity amplification",
            _draw_figure4, plots=("protocol",),
            axes=(("arrival_pattern", (2, 4)), _PROTOCOLS),
        ),
        Experiment(
            "fig5", "Figure 5 — per-class admission rate",
            lambda records: report.figure5_report(records[0], records[0].protocol),
            overrides=_PATTERN_2, axes=(_PROTOCOLS,),
        ),
        Experiment(
            "fig6", "Figure 6 — per-class buffering delay",
            lambda records: report.figure6_report(records[0], records[0].protocol),
            overrides=_PATTERN_2, axes=(_PROTOCOLS,),
        ),
        Experiment(
            "table1", "Table 1 — rejections before admission",
            _draw_table1, plots=("protocol", "arrival_pattern"),
            axes=(_PROTOCOLS, ("arrival_pattern", (2, 4))),
        ),
        Experiment(
            "fig7", "Figure 7 — adaptivity of differentiation",
            lambda records: report.figure7_report(records[0]),
            overrides={"arrival_pattern": 4, "protocol": "dac"},
        ),
        Experiment(
            "fig8a", "Figure 8(a) — impact of M",
            _draw_figure8("probe_candidates", "M"), plots=("probe_candidates",),
            overrides=_PATTERN_2, axes=(("probe_candidates", (4, 8, 16, 32)),),
        ),
        Experiment(
            "fig8b", "Figure 8(b) — impact of T_out",
            _draw_figure8("t_out_seconds", "T_out"), plots=("t_out_seconds",),
            overrides=_PATTERN_2,
            axes=(("t_out_seconds", (60.0, 120.0, 1200.0, 3600.0, 7200.0)),),
        ),
        Experiment(
            "fig9", "Figure 9 — impact of E_bkf",
            _draw_figure9, plots=("e_bkf",),
            overrides=_PATTERN_2, axes=(("e_bkf", (1.0, 2.0, 3.0, 4.0)),),
        ),
    )
}


def axes_label(key: _Key) -> str:
    """``name=value`` pairs of a record group's key (``None`` values omitted)."""
    return " ".join(f"{name}={value}" for name, value in key if value is not None)


def _implied(axes: Sequence[str]) -> list[Experiment]:
    """The artifacts whose first plotted axis the grid sweeps.

    A protocol axis implies Figure 4 and Table 1 and comes first; every
    other axis follows in grid order.
    """
    ordered = sorted(axes, key=lambda name: name != "protocol")
    return [
        experiment
        for name in ordered
        for experiment in EXPERIMENTS.values()
        if experiment.plots[:1] == (name,)
    ]


def render_artifacts(
    result_set: ResultSet, artifact_ids: Iterable[str] | None = None
) -> str:
    """The labelled sections of the named artifacts, from ``result_set``.

    Without ``artifact_ids``, the artifacts the grid's axes imply: a
    protocol axis prints Figure 4 and Table 1, a ``probe_candidates`` or
    ``t_out_seconds`` sweep Figure 8, an ``e_bkf`` sweep Figure 9.

    Figures plot each grid point's first record (its first seed, when
    the grid is complete).  Records that share every axis an artifact
    does not plot render as one section, headed
    ``[name=value ...]`` by those shared values when there are any.
    Sections are separated by a blank line; an artifact the records
    cannot fill (Table 1 without both DAC and NDAC) prints nothing.
    """
    firsts: dict[_Key, RunRecord] = {}
    for record in result_set:
        firsts.setdefault(_shared(record, ()), record)
    if artifact_ids is None:
        first = next(iter(firsts.values()), None)
        experiments = _implied([name for name, _ in first.axes] if first else [])
    else:
        experiments = [_experiment(artifact_id) for artifact_id in artifact_ids]
    sections = []
    for experiment in experiments:
        if experiment.section is None:
            raise ConfigurationError(
                f"{experiment.experiment_id} is worked out, not drawn from runs"
            )
        groups: dict[_Key, list[RunRecord]] = {}
        for record in firsts.values():
            groups.setdefault(_shared(record, experiment.plots), []).append(record)
        for key, records in groups.items():
            text = experiment.section(records)
            if text is not None:
                label = axes_label(key)
                sections.append(f"[{label}]\n{text}" if label else text)
    return "\n\n".join(sections)


def _shared(record: RunRecord, plotted: tuple[str, ...]) -> _Key:
    """The record's axes other than ``plotted`` and the seed."""
    return group_key(
        (name, value) for name, value in record.axes
        if name not in plotted and name != "seed"
    )


def _experiment(experiment_id: str) -> Experiment:
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known:\n{list_experiments()}"
        ) from None


def list_experiments() -> str:
    """Human-readable list of registered experiments."""
    return "\n".join(
        f"  {experiment.experiment_id:<8} {experiment.title}"
        for experiment in EXPERIMENTS.values()
    )


def run_experiment(
    experiment_id: str,
    config: SimulationConfig,
    store: "ResultStore | None" = None,
) -> str:
    """Run one experiment's grid by id and return its rendered report.

    With a ``store``, the grid is served from (and written back to) the
    on-disk record cache instead of recomputing every run.
    """
    experiment = _experiment(experiment_id)
    if experiment.section is None:
        return report.figure1_report(config.ladder)
    result_set = experiment.study(config).run(store=store)
    return render_artifacts(result_set, [experiment_id])
