"""Unit tests for OTS_p2p and the baseline assignment algorithms."""

import pytest

from repro.core.assignment import (
    Assignment,
    contiguous_assignment,
    ots_assignment,
    round_robin_assignment,
    sweep_assignment,
)
from repro.core.schedule import min_start_delay_slots
from repro.core.model import ClassLadder
from repro.errors import AssignmentError
from tests.conftest import offers_from_classes


class TestSweepPaperExample:
    """The worked example of the paper's Section 3 / Figures 1-2.

    The literal Figure-2 pseudo-code (``sweep_assignment``) reproduces the
    paper's enumerated segment lists exactly.
    """

    @pytest.fixture
    def figure1(self, ladder):
        return sweep_assignment(offers_from_classes([1, 2, 3, 3], ladder), ladder)

    def test_period_is_eight_segments(self, figure1):
        assert figure1.period_len == 8

    def test_exact_paper_segment_lists(self, figure1):
        # "after the first 'while' iteration, segments 7, 6, 5, 4 are
        #  assigned to Ps1..Ps4; after the second, segments 3, 2 to Ps1, Ps2;
        #  during the last two, segments 1 and 0 to Ps1."
        assert figure1.segment_lists == ((0, 1, 3, 7), (2, 6), (5,), (4,))

    def test_quotas_match_bandwidth_shares(self, figure1):
        assert [figure1.quota_of(j) for j in range(4)] == [4, 2, 1, 1]

    def test_supplier_of_segment_round_trips(self, figure1):
        assert figure1.supplier_of_segment(7).peer_id == 1
        assert figure1.supplier_of_segment(6).peer_id == 2
        assert figure1.supplier_of_segment(5).peer_id == 3
        assert figure1.supplier_of_segment(4).peer_id == 4

    def test_sweep_matches_ots_delay_on_paper_example(self, ladder, figure1):
        optimal = ots_assignment(offers_from_classes([1, 2, 3, 3], ladder), ladder)
        assert min_start_delay_slots(figure1) == min_start_delay_slots(optimal) == 4


class TestSweepVsOtsDivergence:
    """The literal sweep is not optimal on every input (DESIGN.md §6)."""

    def test_known_counterexample(self, ladder):
        offers = offers_from_classes([1, 3, 3, 3, 4, 4], ladder)
        sweep = sweep_assignment(offers, ladder)
        optimal = ots_assignment(offers, ladder)
        assert min_start_delay_slots(sweep) == 7
        assert min_start_delay_slots(optimal) == 6  # = n, per Theorem 1

    def test_sweep_never_beats_ots(self, ladder, rng):
        from tests.conftest import random_feasible_classes

        for _ in range(50):
            classes = random_feasible_classes(rng, ladder)
            offers = offers_from_classes(classes, ladder)
            assert min_start_delay_slots(
                sweep_assignment(offers, ladder)
            ) >= min_start_delay_slots(ots_assignment(offers, ladder))


class TestOtsGeneral:
    def test_accepts_unsorted_input(self, ladder):
        shuffled = offers_from_classes([3, 1, 3, 2], ladder)
        assignment = ots_assignment(shuffled, ladder)
        # Suppliers end up sorted by descending offer regardless of input.
        assert [o.peer_class for o in assignment.suppliers] == [1, 2, 3, 3]

    def test_two_class1_suppliers(self, ladder):
        assignment = ots_assignment(offers_from_classes([1, 1], ladder), ladder)
        assert assignment.period_len == 2
        # Both arrival slots are at slot 2; each supplier carries one segment.
        assert sorted(len(s) for s in assignment.segment_lists) == [1, 1]

    def test_single_supplier_requires_full_rate(self):
        # Only a ladder with a class offering R0 itself would allow n=1; on
        # the paper's ladder every offer is <= R0/2 so one supplier is
        # infeasible.
        ladder = ClassLadder(4)
        with pytest.raises(AssignmentError):
            ots_assignment(offers_from_classes([1], ladder), ladder)

    def test_empty_supplier_set_rejected(self, ladder):
        with pytest.raises(AssignmentError):
            ots_assignment([], ladder)

    def test_all_lowest_class(self, ladder):
        assignment = ots_assignment(offers_from_classes([4] * 16, ladder), ladder)
        assert assignment.period_len == 16
        # Every supplier carries exactly one segment.
        assert all(len(lst) == 1 for lst in assignment.segment_lists)
        # The literal sweep deals them from the back, one per supplier.
        sweep = sweep_assignment(offers_from_classes([4] * 16, ladder), ladder)
        assert [lst for lst in sweep.segment_lists] == [(15 - j,) for j in range(16)]

    def test_assignment_partitions_period(self, ladder, rng):
        from tests.conftest import random_feasible_classes

        for _ in range(25):
            classes = random_feasible_classes(rng, ladder)
            assignment = ots_assignment(offers_from_classes(classes, ladder), ladder)
            assigned = sorted(
                s for segments in assignment.segment_lists for s in segments
            )
            assert assigned == list(range(assignment.period_len))


class TestBaselines:
    def test_contiguous_matches_paper_assignment_one(self, ladder):
        assignment = contiguous_assignment(
            offers_from_classes([1, 2, 3, 3], ladder), ladder
        )
        assert assignment.segment_lists == ((0, 1, 2, 3), (4, 5), (6,), (7,))

    def test_round_robin_deals_from_front(self, ladder):
        assignment = round_robin_assignment(
            offers_from_classes([1, 2, 3, 3], ladder), ladder
        )
        assert assignment.segment_lists == ((0, 4, 6, 7), (1, 5), (2,), (3,))

    def test_baselines_cover_period(self, ladder):
        offers = offers_from_classes([2, 2, 2, 2], ladder)
        for algorithm in (contiguous_assignment, round_robin_assignment):
            assignment = algorithm(offers, ladder)
            assigned = sorted(
                s for segments in assignment.segment_lists for s in segments
            )
            assert assigned == list(range(assignment.period_len))


class TestAssignmentValidation:
    def test_mismatched_lengths_rejected(self, ladder):
        offers = tuple(offers_from_classes([1, 1], ladder))
        with pytest.raises(AssignmentError):
            Assignment(suppliers=offers, period_len=2, segment_lists=((0, 1),))

    def test_duplicate_segment_rejected(self, ladder):
        offers = tuple(offers_from_classes([1, 1], ladder))
        with pytest.raises(AssignmentError):
            Assignment(
                suppliers=offers, period_len=2, segment_lists=((0,), (0,))
            )

    def test_missing_segment_rejected(self, ladder):
        offers = tuple(offers_from_classes([1, 1], ladder))
        with pytest.raises(AssignmentError):
            Assignment(
                suppliers=offers, period_len=2, segment_lists=((0,), (2,))
            )

    def test_describe_mentions_all_suppliers(self, ladder):
        assignment = ots_assignment(offers_from_classes([1, 2, 2], ladder), ladder)
        text = assignment.describe()
        for offer in assignment.suppliers:
            assert f"peer {offer.peer_id}" in text
