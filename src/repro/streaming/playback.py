"""Slot-by-slot playback simulation (verification of the analytic schedule).

:mod:`repro.core.schedule` computes buffering delays analytically.  This
module *replays* a session segment by segment — arrivals feeding a buffer, a
playhead draining it — and reports what actually happens: when each segment
arrived, whether the playhead ever stalled, and the smallest start delay
that avoids stalls empirically.

The test suite cross-checks the empirical results against the analytic ones
(and against Theorem 1); examples use it to visualise schedules.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.assignment import Assignment
from repro.core.schedule import TransmissionSchedule
from repro.errors import SchedulingError
from repro.streaming.media import MediaFile

__all__ = ["PlaybackSimulation", "simulate_playback", "empirical_min_delay_slots"]


@dataclass(frozen=True)
class PlaybackSimulation:
    """Outcome of replaying a session's playback.

    Attributes
    ----------
    start_delay_slots:
        The delay the playback was attempted with.
    stalled_segments:
        Segments whose playback deadline passed before they arrived (empty
        means continuous playback).
    arrival_slots:
        Arrival slot of each simulated segment, indexed by segment.
    buffered_at_start:
        Number of segments already in the buffer when playback started.
    """

    start_delay_slots: int
    stalled_segments: tuple[int, ...]
    arrival_slots: tuple[int, ...]
    buffered_at_start: int

    @property
    def continuous(self) -> bool:
        """True when playback never stalled."""
        return not self.stalled_segments


def simulate_playback(
    assignment: Assignment,
    start_delay_slots: int,
    num_segments: int | None = None,
    media: MediaFile | None = None,
) -> PlaybackSimulation:
    """Replay playback of ``num_segments`` under ``assignment``.

    Segments arrive per the transmission schedule; playback consumes segment
    ``s`` during slot ``start_delay_slots + s``.  A segment that has not
    fully arrived by the *start* of its playback slot is a stall.

    ``num_segments`` defaults to the whole file when ``media`` is given,
    otherwise to four assignment periods.
    """
    if start_delay_slots < 0:
        raise SchedulingError(f"start delay must be >= 0, got {start_delay_slots}")
    schedule = TransmissionSchedule.from_assignment(assignment)
    if num_segments is None:
        if media is not None:
            num_segments = media.num_segments
        else:
            num_segments = 4 * assignment.period_len

    arrivals = [schedule.arrival_slot(s) for s in range(num_segments)]
    stalled = tuple(
        s for s in range(num_segments) if arrivals[s] > start_delay_slots + s
    )
    buffered = sum(1 for slot in arrivals if slot <= start_delay_slots)
    return PlaybackSimulation(
        start_delay_slots=start_delay_slots,
        stalled_segments=stalled,
        arrival_slots=tuple(arrivals),
        buffered_at_start=buffered,
    )


def empirical_min_delay_slots(
    assignment: Assignment, num_segments: int | None = None
) -> int:
    """Smallest start delay with stall-free playback, found by replay.

    Walks delays upward from zero; the analytic bound
    (:func:`repro.core.schedule.min_start_delay_slots`) guarantees
    termination within ``period_len`` steps.
    """
    delay = 0
    while True:
        result = simulate_playback(assignment, delay, num_segments=num_segments)
        if result.continuous:
            return delay
        delay += 1
        if delay > 4 * assignment.period_len:
            raise SchedulingError(
                "no stall-free delay found within four periods; "
                "assignment is malformed"
            )
