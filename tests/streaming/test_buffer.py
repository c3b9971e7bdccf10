"""Unit tests for receiver-buffer occupancy accounting."""

import pytest

from repro.core.assignment import ots_assignment
from repro.core.schedule import min_start_delay_slots
from repro.errors import SchedulingError
from repro.streaming.buffer import occupancy_profile
from repro.streaming.media import MediaFile
from tests.conftest import offers_from_classes


class TestOccupancyProfile:
    def test_peak_positive_for_any_real_schedule(self, ladder):
        assignment = ots_assignment(offers_from_classes([1, 2, 3, 3], ladder), ladder)
        stats = occupancy_profile(assignment, start_delay_slots=4)
        assert stats.peak_segments >= 1
        assert 0 <= stats.peak_slot < len(stats.profile)
        assert stats.mean_segments > 0

    def test_profile_conserves_segments(self, ladder):
        # Sum over the profile equals the total segment-slots of residency.
        assignment = ots_assignment(offers_from_classes([1, 1], ladder), ladder)
        stats = occupancy_profile(assignment, start_delay_slots=2, num_segments=4)
        assert sum(stats.profile) == sum(
            # each segment resides from its arrival to its playback end
            max(0, (2 + s + 1) - arrival)
            for s, arrival in enumerate(
                [2, 2, 4, 4]  # arrivals of segments 0..3 for two class-1 peers
            )
        )

    def test_larger_delay_increases_peak(self, ladder):
        assignment = ots_assignment(offers_from_classes([1, 2, 3, 3], ladder), ladder)
        minimum = min_start_delay_slots(assignment)
        tight = occupancy_profile(assignment, minimum)
        loose = occupancy_profile(assignment, minimum + 8)
        assert loose.peak_segments >= tight.peak_segments

    def test_peak_bytes_scales_with_segment_size(self, ladder):
        assignment = ots_assignment(offers_from_classes([1, 1], ladder), ladder)
        stats = occupancy_profile(assignment, 2)
        small = MediaFile(playback_bps=1e6)
        large = MediaFile(playback_bps=2e6)
        assert stats.peak_bytes(large) == 2 * stats.peak_bytes(small)

    def test_negative_delay_rejected(self, ladder):
        assignment = ots_assignment(offers_from_classes([1, 1], ladder), ladder)
        with pytest.raises(SchedulingError):
            occupancy_profile(assignment, -1)
