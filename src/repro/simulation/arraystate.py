"""Struct-of-arrays state columns for the array execution engine.

:class:`~repro.simulation.arrayengine.ArrayEngine` holds the per-peer
state of a run — the :class:`~repro.core.admission.SupplierAdmissionState`
machine of every supplier plus each peer's counters and measurements —
as *columns*: one array per field, indexed by peer id.  At a million
peers that replaces millions of heap objects and attribute-dict hops on
the hottest path in the repository.

Two deliberate layout choices:

* **Hybrid columns.**  Mutable hot fields (admission level and step,
  per-session flags, counters) are plain Python ``list``/``bytearray``
  columns: the engine reads and writes them one scalar at a time inside
  the event loop, and CPython list indexing is the fastest scalar access
  there is.  Write-only measurement fields (``admitted_time`` and
  friends) are typed :class:`array.array` columns — unboxed, so a
  million-peer run stores them in a few bytes per peer, and never read
  in the loop.
* **Two small integers per admission vector.**  Every vector a
  registered policy can reach is fixed by the level ``L`` set at
  initialization or at the last tighten, and the number ``k`` of linear
  elevation steps since: ``Pa[j] = 1`` for ``j <= L``, else
  ``min(1, 2**(L-j) + k/8)`` under ``dac-linear-elevation``; ``k`` stays
  0 under the doubling policies, where a relax moves ``L`` instead.  The
  ``level`` column stores the lowest favored class ``F`` (``L`` plus the
  classes ``k`` steps lifted to 1) signed: ``0`` means "no admission
  state yet" (plain requester), ``+F`` an idle supplier favoring classes
  ``1..F``, ``-F`` the same supplier while busy serving a session.  The
  ``step`` column stores ``k``, at most 8.

:class:`SessionTable` plays the same trick for the lifecycle extension's
in-flight sessions: slot-indexed columns with a LIFO free list so
interrupted/completed sessions recycle their slots, and a per-slot
generation counter standing in for event cancellation.
"""

from __future__ import annotations

from array import array

__all__ = [
    "PeerArrays",
    "SessionTable",
]


class PeerArrays:
    """All per-peer simulation state, one column per field.

    Hot columns (lists/bytearrays, scalar access in the event loop):

    ``peer_class``
        Static class of every peer.
    ``level``
        Signed lowest favored class: 0 = no supplier state, +F idle,
        -F busy.
    ``step``
        Linear elevation steps since the last tighten or promotion (0
        under the doubling policies, and for every non-supplier).
    ``favored_while_busy`` / ``reminder_min_class``
        Per-session DAC bookkeeping: whether a favored-class request
        arrived while busy, and the highest (numerically smallest)
        class that left a reminder (0 = none) — together they replace
        ``SupplierAdmissionState``'s flag and reminder list.
    ``idle_generation``
        Idle-timer generation counter; bumping it invalidates any
        pending elevation timeout.
    ``rejections`` / ``departures`` / ``departed``
        Per-peer counters, and whether a supplier is offline.
    ``first_request_time``
        ``None`` until the peer's first request event fires.

    Cold columns (typed ``array.array``, write-only in the loop):

    ``admitted_time`` / ``buffering_delay_slots`` / ``num_suppliers_served_by``
        Admission measurements (NaN / -1 until admitted).
    """

    __slots__ = (
        "peer_class",
        "level",
        "step",
        "favored_while_busy",
        "reminder_min_class",
        "idle_generation",
        "rejections",
        "departures",
        "departed",
        "first_request_time",
        "admitted_time",
        "buffering_delay_slots",
        "num_suppliers_served_by",
    )

    def __init__(self, peer_classes: list[int]) -> None:
        n = len(peer_classes)
        self.peer_class = list(peer_classes)
        self.level = [0] * n
        self.step = bytearray(n)
        self.favored_while_busy = bytearray(n)
        self.reminder_min_class = [0] * n
        self.idle_generation = [0] * n
        self.rejections = [0] * n
        self.departures = [0] * n
        self.departed = bytearray(n)
        self.first_request_time: list[float | None] = [None] * n
        self.admitted_time = array("d", [float("nan")]) * n
        self.buffering_delay_slots = array("i", [-1]) * n
        self.num_suppliers_served_by = array("i", [-1]) * n

    def __len__(self) -> int:
        return len(self.peer_class)


class SessionTable:
    """Slot-recycled columns for lifecycle-tracked in-flight sessions.

    ``alloc`` hands out the most recently freed slot (LIFO, so hot slots
    stay cache-resident) or grows every column by one; ``free`` retires a
    slot and bumps its ``generation`` so any event still carrying the old
    ``(slot, generation)`` pair is recognized as stale.  The engine also
    bumps ``generation`` directly on interruption, which cancels the
    session's scheduled end event.
    """

    __slots__ = (
        "requester",
        "suppliers",
        "resumed_at",
        "remaining_seconds",
        "interrupted_at",
        "interruptions",
        "recovery_attempts",
        "stall_seconds",
        "generation",
        "free_slots",
    )

    def __init__(self) -> None:
        self.requester: list[int] = []
        self.suppliers: list[tuple[int, ...]] = []
        self.resumed_at: list[float] = []
        self.remaining_seconds: list[float] = []
        self.interrupted_at: list[float | None] = []
        self.interruptions: list[int] = []
        self.recovery_attempts: list[int] = []
        self.stall_seconds: list[float] = []
        self.generation: list[int] = []
        self.free_slots: list[int] = []

    def alloc(
        self,
        requester: int,
        suppliers: tuple[int, ...],
        resumed_at: float,
        remaining_seconds: float,
    ) -> int:
        """Claim a slot for a freshly admitted (or restarted) session."""
        free = self.free_slots
        if free:
            slot = free.pop()
            self.requester[slot] = requester
            self.suppliers[slot] = suppliers
            self.resumed_at[slot] = resumed_at
            self.remaining_seconds[slot] = remaining_seconds
            self.interrupted_at[slot] = None
            self.interruptions[slot] = 0
            self.recovery_attempts[slot] = 0
            self.stall_seconds[slot] = 0.0
            return slot
        slot = len(self.requester)
        self.requester.append(requester)
        self.suppliers.append(suppliers)
        self.resumed_at.append(resumed_at)
        self.remaining_seconds.append(remaining_seconds)
        self.interrupted_at.append(None)
        self.interruptions.append(0)
        self.recovery_attempts.append(0)
        self.stall_seconds.append(0.0)
        self.generation.append(0)
        return slot

    def release(self, slot: int) -> None:
        """Retire a slot (session complete, lost, or abandoned).

        The generation bump invalidates stale events; dropping the
        supplier tuple releases the only per-slot object reference.
        """
        self.generation[slot] += 1
        self.suppliers[slot] = ()
        self.free_slots.append(slot)

    def __len__(self) -> int:
        """Number of allocated slots (live + free) — the table's high-water mark."""
        return len(self.requester)

