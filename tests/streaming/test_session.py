"""Unit tests for multi-supplier streaming sessions."""

import pytest

from repro.core.assignment import contiguous_assignment
from repro.errors import InfeasibleSessionError
from repro.streaming.media import MediaFile
from repro.streaming.session import plan_session
from tests.conftest import offers_from_classes


@pytest.fixture
def media():
    return MediaFile()


class TestPlanSession:
    def test_defaults_to_ots_with_theorem1_delay(self, ladder, media):
        offers = offers_from_classes([1, 2, 3, 3], ladder)
        session = plan_session(99, 2, offers, media, ladder)
        assert session.num_suppliers == 4
        assert session.buffering_delay_slots == 4
        assert session.buffering_delay_seconds == 4 * media.segment_seconds

    def test_transfer_takes_the_show_time(self, ladder, media):
        offers = offers_from_classes([1, 1], ladder)
        session = plan_session(1, 1, offers, media, ladder)
        assert session.transfer_seconds == media.show_seconds
        assert session.playback_end_seconds == pytest.approx(
            media.show_seconds + 2 * media.segment_seconds
        )

    def test_explicit_baseline_assignment(self, ladder, media):
        offers = offers_from_classes([1, 2, 3, 3], ladder)
        assignment = contiguous_assignment(offers, ladder)
        session = plan_session(1, 1, offers, media, ladder, assignment=assignment)
        assert session.buffering_delay_slots == 5  # Assignment I of Figure 1

    def test_infeasible_offer_set_rejected(self, ladder, media):
        with pytest.raises(InfeasibleSessionError):
            plan_session(1, 1, offers_from_classes([1, 2], ladder), media, ladder)

    def test_supplier_busy_time_equals_show_time(self, ladder, media):
        offers = offers_from_classes([2, 2, 2, 2], ladder)
        session = plan_session(1, 1, offers, media, ladder)
        for index in range(session.num_suppliers):
            assert session.supplier_busy_seconds(index) == media.show_seconds

    def test_supplier_index_bounds_checked(self, ladder, media):
        session = plan_session(
            1, 1, offers_from_classes([1, 1], ladder), media, ladder
        )
        with pytest.raises(InfeasibleSessionError):
            session.supplier_busy_seconds(2)

    def test_schedule_reachable_from_session(self, ladder, media):
        session = plan_session(
            1, 1, offers_from_classes([1, 2, 2], ladder), media, ladder
        )
        schedule = session.schedule()
        assert schedule.period_len == session.assignment.period_len

    def test_describe_mentions_delay_and_suppliers(self, ladder, media):
        session = plan_session(
            7, 3, offers_from_classes([1, 2, 2], ladder), media, ladder
        )
        text = session.describe()
        assert "peer 7" in text and "buffering delay: 3 slots" in text
