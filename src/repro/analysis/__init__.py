"""Analysis and reporting: statistics helpers, ASCII plots, paper renderers.

* :mod:`repro.analysis.stats` — accumulative/windowed means, binning,
  series alignment, multi-seed confidence intervals;
* :mod:`repro.analysis.plots` — dependency-free ASCII line charts and CSV
  export, so every benchmark can *show* its figure in the terminal;
* :mod:`repro.analysis.report` — one renderer per paper table/figure,
  consuming :class:`~repro.simulation.runner.SimulationResult` objects and
  printing the same rows/series the paper reports.
"""

from repro.analysis.stats import (
    align_series,
    mean_confidence_interval,
    value_at_hour,
    windowed_mean,
)
from repro.analysis.plots import ascii_chart, render_table, write_csv
from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.analysis.fluid import FluidTrajectory, fluid_capacity_model
from repro.analysis import report

__all__ = [
    "align_series",
    "value_at_hour",
    "windowed_mean",
    "mean_confidence_interval",
    "ascii_chart",
    "render_table",
    "write_csv",
    "EXPERIMENTS",
    "run_experiment",
    "FluidTrajectory",
    "fluid_capacity_model",
    "report",
]
