"""Unit tests for requester-side DAC_p2p logic (Section 4.2)."""

import pytest

from repro.core.model import ClassLadder
from repro.core.requesting import (
    CandidateReport,
    CandidateStatus,
    backoff_delay,
    choose_reminder_set,
    greedy_fill,
)
from repro.errors import ConfigurationError


def report(peer_id, peer_class, status, favors=False, ladder=None):
    ladder = ladder or ClassLadder(4)
    return CandidateReport(
        peer_id=peer_id,
        peer_class=peer_class,
        units=ladder.offer_units(peer_class),
        status=status,
        favors_requester=favors,
    )


class TestGreedyFill:
    def test_exact_fill_two_class1(self, ladder):
        granted = [report(1, 1, CandidateStatus.GRANTED),
                   report(2, 1, CandidateStatus.GRANTED)]
        selected, deficit = greedy_fill(granted, ladder)
        assert deficit == 0
        assert [r.peer_id for r in selected] == [1, 2]

    def test_skips_offer_that_would_overshoot(self, ladder):
        # 1/2 + 1/4 + 1/4 granted plus an extra 1/2: greedy takes
        # 1/2, then the second 1/2 completes R0 — the quarters are unused.
        granted = [
            report(1, 1, CandidateStatus.GRANTED),
            report(2, 2, CandidateStatus.GRANTED),
            report(3, 2, CandidateStatus.GRANTED),
            report(4, 1, CandidateStatus.GRANTED),
        ]
        selected, deficit = greedy_fill(granted, ladder)
        assert deficit == 0
        assert [r.peer_id for r in selected] == [1, 4]

    def test_partial_fill_reports_shortfall(self, ladder):
        granted = [report(1, 2, CandidateStatus.GRANTED),
                   report(2, 3, CandidateStatus.GRANTED)]
        selected, deficit = greedy_fill(granted, ladder)
        assert len(selected) == 2
        assert deficit == ladder.full_rate_units - 4 - 2

    def test_empty_grant_set(self, ladder):
        selected, deficit = greedy_fill([], ladder)
        assert selected == []
        assert deficit == ladder.full_rate_units

    def test_greedy_fill_is_exact_when_any_subset_is(self, ladder, rng):
        # Fundamental power-of-two property: if some subset of the granted
        # offers sums to R0, greedy descending finds one.
        from itertools import combinations

        for _ in range(50):
            classes = [rng.randint(1, 4) for _ in range(rng.randint(1, 10))]
            granted = [
                report(i + 1, c, CandidateStatus.GRANTED) for i, c in enumerate(classes)
            ]
            subset_exists = any(
                sum(r.units for r in combo) == ladder.full_rate_units
                for size in range(1, len(granted) + 1)
                for combo in combinations(granted, size)
            )
            _selected, deficit = greedy_fill(granted, ladder)
            assert (deficit == 0) == subset_exists

    def test_non_granted_report_rejected(self, ladder):
        with pytest.raises(ConfigurationError):
            greedy_fill([report(1, 1, CandidateStatus.BUSY)], ladder)


class TestReminderSet:
    def test_only_busy_favoring_candidates_chosen(self, ladder):
        busy = [
            report(1, 1, CandidateStatus.BUSY, favors=True),
            report(2, 1, CandidateStatus.BUSY, favors=False),
            report(3, 2, CandidateStatus.BUSY, favors=True),
        ]
        chosen = choose_reminder_set(busy, shortfall_units=12)
        assert [r.peer_id for r in chosen] == [1, 3]

    def test_covers_shortfall_without_overshoot(self, ladder):
        busy = [
            report(1, 1, CandidateStatus.BUSY, favors=True),
            report(2, 2, CandidateStatus.BUSY, favors=True),
            report(3, 2, CandidateStatus.BUSY, favors=True),
        ]
        # shortfall of 1/4 R0 (4 units): only one class-2 peer is reminded
        chosen = choose_reminder_set(busy, shortfall_units=4)
        assert [r.peer_id for r in chosen] == [2]

    def test_high_class_candidates_reminded_first(self, ladder):
        busy = [
            report(5, 3, CandidateStatus.BUSY, favors=True),
            report(6, 1, CandidateStatus.BUSY, favors=True),
        ]
        chosen = choose_reminder_set(busy, shortfall_units=10)
        assert chosen[0].peer_id == 6

    def test_zero_shortfall_means_no_reminders(self, ladder):
        busy = [report(1, 1, CandidateStatus.BUSY, favors=True)]
        assert choose_reminder_set(busy, 0) == []

    def test_non_busy_candidates_ignored(self, ladder):
        mixed = [
            report(1, 1, CandidateStatus.GRANTED, favors=True),
            report(2, 1, CandidateStatus.DOWN, favors=True),
        ]
        assert choose_reminder_set(mixed, 16) == []


class TestBackoff:
    def test_paper_schedule(self):
        # T_bkf = 10 min, E_bkf = 2: "after the i-th rejection, back off
        # 10 * 2**(i-1) minutes"
        t_bkf = 600.0
        assert backoff_delay(1, t_bkf, 2.0) == 600.0
        assert backoff_delay(2, t_bkf, 2.0) == 1200.0
        assert backoff_delay(5, t_bkf, 2.0) == 9600.0

    def test_constant_backoff_with_unit_factor(self):
        for i in (1, 2, 7):
            assert backoff_delay(i, 600.0, 1.0) == 600.0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            backoff_delay(0, 600.0, 2.0)
        with pytest.raises(ConfigurationError):
            backoff_delay(1, -1.0, 2.0)
        with pytest.raises(ConfigurationError):
            backoff_delay(1, 600.0, 0.5)
