"""Minimal, fast discrete-event engine.

Nothing here is specific to streaming: a clock, monotone sequence numbers
for deterministic FIFO tie-breaking of simultaneous events (a strict
requirement for reproducible runs — Python's heap is not stable on its
own), one binary heap of pending events, and a dispatch loop.

Design notes
------------
* Events are ``(time, sequence, handle, callback, argument)`` tuples and
  dispatch in strictly increasing ``(time, sequence)`` order: events at
  distinct times fire in time order, events at the same time in
  scheduling (FIFO) order.  Sequence numbers are unique, so tuple
  comparison never falls through to comparing callbacks (which would
  raise).
* Cancellation is *logical*: :meth:`Simulator.cancel` marks a handle dead
  and the loop skips dead entries when they surface, so cancelling never
  perturbs the order of the surviving events.  So that
  cancellation-heavy workloads don't drag a growing graveyard through
  every heap operation, the heap is compacted (live entries
  re-heapified) whenever dead entries outnumber live ones and the heap
  holds at least :attr:`Simulator.COMPACT_MIN_SIZE` entries.
  :attr:`Simulator.pending` is a live count maintained incrementally —
  it is read in hot loops (runner progress accounting) and never
  recounts the heap.  The streaming system instead mostly uses
  generation counters on its own state, which is cheaper than allocating
  handles for the (very hot) idle-timer path.
* Time is float seconds.  All durations in this reproduction are sums of
  "nice" values (minutes, hours, powers of two), so float determinism is a
  non-issue in practice, and the regression suite pins exact outputs.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import SimulationError

__all__ = ["Simulator", "EventHandle"]


@dataclass(slots=True)
class EventHandle:
    """Cancellable reference to a scheduled event."""

    time: float
    sequence: int
    cancelled: bool = False
    #: True once the event has left the queue (fired or skipped)
    done: bool = False


#: one queued event: (time, sequence, handle, callback, argument)
Entry = tuple[float, int, EventHandle, Callable, object]


class Simulator:
    """Clock + sequence numbers + dispatch over a binary heap of events.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule_at(5.0, fired.append, "a")
    >>> _ = sim.schedule_at(2.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    5.0
    """

    __slots__ = ("now", "_queue", "_sequence", "_dead", "_live", "events_processed")

    #: don't bother compacting queues smaller than this
    COMPACT_MIN_SIZE = 64

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = start_time
        self._queue: list[Entry] = []
        self._sequence = 0
        #: cancelled entries still in the heap
        self._dead = 0
        #: live (not fired, not cancelled) entries in the heap
        self._live = 0
        self.events_processed = 0

    def schedule_at(
        self, time: float, callback: Callable, argument: object = None
    ) -> EventHandle:
        """Schedule ``callback(argument)`` at absolute ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        self._sequence += 1
        handle = EventHandle(time=time, sequence=self._sequence)
        heapq.heappush(
            self._queue, (time, self._sequence, handle, callback, argument)
        )
        self._live += 1
        return handle

    def schedule_in(
        self, delay: float, callback: Callable, argument: object = None
    ) -> EventHandle:
        """Schedule ``callback(argument)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay}")
        return self.schedule_at(self.now + delay, callback, argument)

    def cancel(self, handle: EventHandle) -> None:
        """Mark an event dead; it is skipped when it reaches the queue head.

        Idempotent.  When more than half the heap's entries are dead, the
        heap is rebuilt from the live entries so cancellation-heavy
        workloads don't keep paying queue costs for events that will
        never fire.
        """
        if handle.cancelled or handle.done:
            return
        handle.cancelled = True
        self._dead += 1
        self._live -= 1
        if (
            len(self._queue) >= self.COMPACT_MIN_SIZE
            and self._dead * 2 > len(self._queue)
        ):
            self._queue = [entry for entry in self._queue if not entry[2].cancelled]
            heapq.heapify(self._queue)
            self._dead = 0

    @property
    def pending(self) -> int:
        """Number of live (not fired, not cancelled) events in the queue.

        A counter maintained incrementally — O(1), safe to read in hot
        progress-accounting loops.
        """
        return self._live

    def _pop_due(self, until: float | None) -> Entry | None:
        """Remove and return the earliest live entry at or before ``until``;
        ``None`` when the queue is empty or that entry is later."""
        queue = self._queue
        while queue:
            entry = queue[0]
            if until is not None and entry[0] > until:
                return None
            heapq.heappop(queue)
            handle = entry[2]
            handle.done = True
            if handle.cancelled:
                self._dead -= 1
                continue
            self._live -= 1
            return entry
        return None

    def run(self, until: float | None = None) -> None:
        """Process events in time order until the queue drains or ``until``.

        With ``until`` set, events at exactly ``until`` are still processed;
        later ones stay queued and the clock is advanced to ``until``.
        """
        pop_due = self._pop_due
        while True:
            entry = pop_due(until)
            if entry is None:
                break
            time, _sequence, _handle, callback, argument = entry
            self.now = time
            self.events_processed += 1
            callback(argument)
        if until is not None and self.now < until:
            self.now = until

    def step(self) -> bool:
        """Process exactly one (non-cancelled) event; False if queue is empty."""
        entry = self._pop_due(None)
        if entry is None:
            return False
        time, _sequence, _handle, callback, argument = entry
        self.now = time
        self.events_processed += 1
        callback(argument)
        return True
