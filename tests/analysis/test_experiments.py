"""Unit tests for the named experiment registry."""

import pytest

from repro.analysis.experiments import (
    EXPERIMENTS,
    list_experiments,
    render_artifacts,
    run_experiment,
)
from repro.errors import ConfigurationError
from repro.orchestration.study import ResultSet
from repro.simulation.config import SimulationConfig


#: the heading each artifact's report prints
HEADINGS = {
    "fig1": "Figure 1 — different media data assignments",
    "fig4": "Figure 4 — system capacity amplification (arrival pattern 2)",
    "fig5": "Figure 5 — per-class accumulative admission rate",
    "fig6": "Figure 6 — per-class accumulative avg buffering delay",
    "table1": "Table 1 — per-class average rejections before admission",
    "fig7": "Figure 7 — lowest favored class of requesting peers",
    "fig8a": "Figure 8 — impact of M on capacity amplification",
    "fig8b": "Figure 8 — impact of T_out on capacity amplification",
    "fig9": "Figure 9 — impact of E_bkf on overall request admission rate",
}


@pytest.fixture(scope="module")
def tiny_config():
    return SimulationConfig(
        seed_suppliers={1: 2},
        requesting_peers={1: 4, 2: 4, 3: 16, 4: 16},
        master_seed=9,
    )


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        assert set(EXPERIMENTS) == {
            "fig1", "fig4", "fig5", "fig6", "table1", "fig7", "fig8a",
            "fig8b", "fig9",
        }

    def test_listing_mentions_every_id(self):
        text = list_experiments()
        for experiment_id in EXPERIMENTS:
            assert experiment_id in text

    def test_unknown_id_rejected(self, tiny_config):
        with pytest.raises(ConfigurationError):
            run_experiment("fig99", tiny_config)


class TestRunners:
    def test_fig1_is_simulation_free(self, tiny_config):
        text = run_experiment("fig1", tiny_config)
        assert "Assignment I" in text

    def test_table1_produces_dac_ndac_cells(self, tiny_config):
        text = run_experiment("table1", tiny_config)
        assert "Class 1" in text and "/" in text

    @pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
    def test_figure_experiments_render(self, tiny_config, experiment_id):
        text = run_experiment(experiment_id, tiny_config)
        assert HEADINGS[experiment_id] in text

    def test_sections_are_labelled_by_the_shared_axes(self, tiny_config):
        text = run_experiment("fig4", tiny_config)
        assert text.startswith("[arrival_pattern=2]\nFigure 4")
        assert "\n\n[arrival_pattern=4]\nFigure 4" in text

    def test_figure1_is_not_drawn_from_runs(self):
        with pytest.raises(ConfigurationError, match="fig1"):
            render_artifacts(ResultSet(records=()), ["fig1"])

    def test_fig9_sweeps_backoff(self, tiny_config):
        text = run_experiment("fig9", tiny_config)
        assert "E_bkf=1" in text and "E_bkf=4" in text
