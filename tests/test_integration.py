"""End-to-end integration tests: the paper's qualitative claims hold.

These are the claims Section 5 makes about DAC_p2p vs NDAC_p2p, checked on
a scaled-down population (the dynamics depend on supply/demand ratios, not
absolute counts).
"""

import pytest

from repro.analysis.stats import area_under_series, value_at_hour
from repro.simulation.config import SimulationConfig
from repro.orchestration.study import Study
from repro.simulation.runner import run_simulation

HOUR = 3600.0


@pytest.fixture(scope="module")
def small_paper_config():
    """1/50-scale paper population: 1,002 peers."""
    return SimulationConfig().scaled(0.02)


@pytest.fixture(scope="module")
def comparison(small_paper_config):
    runs = Study.from_config(small_paper_config).protocols("dac", "ndac").run()
    return {record.protocol: record.result for record in runs}


class TestCapacityAmplification:
    """Claims of Section 5.2(1) / Figure 4."""

    def test_dac_amplifies_capacity_faster(self, comparison):
        dac = comparison["dac"].metrics.capacity_series
        ndac = comparison["ndac"].metrics.capacity_series
        # Integral of the capacity curve: DAC must dominate.
        assert area_under_series(dac) > area_under_series(ndac)

    def test_dac_dominates_through_the_ramp(self, comparison):
        dac = comparison["dac"].metrics.capacity_series
        ndac = comparison["ndac"].metrics.capacity_series
        for hour in (24, 36, 48, 60, 72):
            assert value_at_hour(dac, hour) >= value_at_hour(ndac, hour)

    def test_final_capacity_at_least_95_percent_of_max(self, comparison):
        # "By the end of the 144-hour period, the system capacity achieved
        #  by DAC_p2p has reached at least 95% of the maximum capacity"
        assert comparison["dac"].capacity_fraction_of_max >= 0.95

    def test_growth_slows_after_the_arrival_window(self, comparison):
        dac = comparison["dac"].metrics.capacity_series
        ramp = value_at_hour(dac, 72) - value_at_hour(dac, 36)
        tail = value_at_hour(dac, 144) - value_at_hour(dac, 108)
        assert ramp > tail


class TestAdmissionRates:
    """Claims of Section 5.2(2) / Figure 5."""

    def test_dac_differentiates_admission_by_class(self, comparison):
        rejections = comparison["dac"].metrics.mean_rejections_before_admission()
        assert rejections[1] < rejections[3] < rejections[4]

    def test_ndac_does_not_differentiate(self, comparison):
        rejections = comparison["ndac"].metrics.mean_rejections_before_admission()
        spread = max(rejections.values()) - min(rejections.values())
        dac_rej = comparison["dac"].metrics.mean_rejections_before_admission()
        dac_spread = max(dac_rej.values()) - min(dac_rej.values())
        assert spread < dac_spread

    def test_dac_beats_ndac_for_every_class(self, comparison):
        """Table 1's headline: DAC rejections < NDAC rejections per class."""
        dac = comparison["dac"].metrics.mean_rejections_before_admission()
        ndac = comparison["ndac"].metrics.mean_rejections_before_admission()
        for peer_class in (1, 2, 3, 4):
            assert dac[peer_class] < ndac[peer_class]


class TestBufferingDelay:
    """Claims of Section 5.2(3) / Figure 6."""

    def test_dac_mean_delay_below_ndac_overall(self, comparison):
        dac = comparison["dac"].metrics.mean_buffering_delay_slots()
        ndac = comparison["ndac"].metrics.mean_buffering_delay_slots()
        dac_mean = sum(dac.values()) / len(dac)
        ndac_mean = sum(ndac.values()) / len(ndac)
        assert dac_mean < ndac_mean

    def test_delays_within_theorem_bounds(self, comparison):
        for result in comparison.values():
            delays = result.metrics.mean_buffering_delay_slots()
            for value in delays.values():
                # at least 2 suppliers (max offer is R0/2), at most M = 8
                assert 2.0 <= value <= 8.0


class TestWaitingTime:
    """Claims of Section 5.2(4) / Table 1."""

    def test_dac_waiting_time_ordered_by_class(self, comparison):
        waiting = comparison["dac"].metrics.mean_waiting_seconds()
        assert waiting[1] < waiting[4]

    def test_dac_improves_overall_waiting_time(self, comparison):
        dac = comparison["dac"].metrics.mean_waiting_seconds()
        ndac = comparison["ndac"].metrics.mean_waiting_seconds()
        assert sum(dac.values()) < sum(ndac.values())


class TestAdaptivity:
    """Claims of Section 5.2(5) / Figure 7."""

    def test_high_class_suppliers_start_tight_and_relax(self):
        config = SimulationConfig(arrival_pattern=4).scaled(0.02)
        result = run_simulation(config)
        series = result.metrics.favored_series[1]
        assert series[0].value < 2.0          # tight at the start
        assert series[-1].value == pytest.approx(4.0, abs=0.05)  # fully relaxed

    def test_all_classes_relax_once_demand_dries_up(self):
        config = SimulationConfig(arrival_pattern=4).scaled(0.02)
        result = run_simulation(config)
        for peer_class in (1, 2, 3, 4):
            series = result.metrics.favored_series[peer_class]
            if series:
                assert series[-1].value >= 3.9


class TestParameterStudies:
    """Claims of Section 5.2(6) / Figures 8 and 9."""

    @pytest.fixture(scope="class")
    def tiny(self):
        return SimulationConfig().scaled(0.02)

    def test_m4_slows_capacity_growth(self, tiny):
        runs = Study.from_config(tiny).sweep("probe_candidates", [4, 8]).run()
        area4, area8 = (area_under_series(r.metrics.capacity_series) for r in runs)
        assert area4 < area8

    def test_m_beyond_8_has_diminishing_impact(self, tiny):
        runs = Study.from_config(tiny).sweep("probe_candidates", [4, 8, 16]).run()
        area4, area8, area16 = (
            area_under_series(r.metrics.capacity_series) for r in runs
        )
        assert (area8 - area4) > (area16 - area8)

    def test_aggressive_retry_beats_heavy_backoff(self, tiny):
        # Figure 9: constant backoff achieves the highest admission rate.
        runs = Study.from_config(tiny).sweep("e_bkf", [1.0, 4.0]).run()
        final_1, final_4 = (
            value_at_hour(r.metrics.overall_admission_rate_series, 144)
            for r in runs
        )
        assert final_1 > final_4


class TestReproducibility:
    def test_identical_configs_identical_results(self, small_paper_config):
        a = run_simulation(small_paper_config)
        b = run_simulation(small_paper_config)
        assert a.metrics.to_dict() == b.metrics.to_dict()
        assert a.events_processed == b.events_processed
