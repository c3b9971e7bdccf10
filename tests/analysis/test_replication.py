"""Unit tests for multi-seed replication through ``Study.seeds``."""

import pytest

from repro.orchestration import Study
from repro.simulation.config import SimulationConfig


@pytest.fixture(scope="module")
def replicated():
    config = SimulationConfig(
        seed_suppliers={1: 4},
        requesting_peers={1: 10, 2: 10, 3: 40, 4: 40},
        arrival_pattern=1,
        master_seed=100,
    )
    return Study.from_config(config).seeds(3).run()


def only(aggregates):
    """The single aggregate of a one-grid-point result set."""
    (aggregate,) = aggregates.values()
    return aggregate


class TestReplicate:
    def test_runs_requested_seeds(self, replicated):
        assert [record.seed for record in replicated] == [100, 101, 102]
        assert len(replicated.results()) == 3
        assert [r.config.master_seed for r in replicated.results()] == [100, 101, 102]

    def test_seed_stride(self):
        config = SimulationConfig(
            seed_suppliers={1: 2},
            requesting_peers={1: 2, 2: 2, 3: 8, 4: 8},
            master_seed=5,
        )
        result_set = Study.from_config(config).seeds(2, stride=10).run()
        assert [record.seed for record in result_set] == [5, 15]

    def test_at_least_one_replication_required(self):
        with pytest.raises(ValueError):
            Study.from_config(SimulationConfig()).seeds(0)

    def test_scalar_summary_of_final_capacity(self, replicated):
        summary = only(replicated.aggregate("final_capacity"))
        # All requesters admitted in every seed -> identical capacity.
        expected = (4 * 8 + 10 * 8 + 10 * 4 + 40 * 2 + 40) // 16
        assert summary.mean == expected
        assert summary.half_width == 0.0
        assert len(summary.samples) == 3

    def test_scalar_summary_formats(self, replicated):
        text = str(only(replicated.aggregate("final_capacity")))
        assert "±" in text

    def test_per_class_scalars_have_spread_info(self, replicated):
        summary = only(replicated.aggregate(
            lambda r: r.metrics.mean_rejections_before_admission()[4]
        ))
        assert summary.mean > 0
        assert summary.half_width >= 0.0
        delay = only(replicated.aggregate(
            lambda r: r.metrics.mean_buffering_delay_slots()[1]
        ))
        assert 2.0 <= delay.mean <= 8.0
