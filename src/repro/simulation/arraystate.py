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

:func:`vectorized_arrival_times` reproduces the deterministic arrival
placement of :mod:`repro.simulation.arrivals` bit-for-bit for the
patterns whose cumulative curves use only operations numpy evaluates
identically to CPython scalars (add/sub/mul/div/min — no ``**``, whose
libm path differs in the last ulp).  It is the only numpy user here and
imports numpy itself, so a run on any other arrival set-up never loads
numpy at all.
"""

from __future__ import annotations

from array import array

from repro.errors import ConfigurationError

__all__ = [
    "PeerArrays",
    "SessionTable",
    "VECTORIZABLE_PATTERNS",
    "vectorized_arrival_times",
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
    ``rejections`` / ``sessions_served`` / ``departures`` / ``departed``
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
        "sessions_served",
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
        self.sessions_served = [0] * n
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


#: deterministic arrival patterns whose quantile bisection vectorizes
#: bit-identically (their cumulative curves avoid ``**``)
VECTORIZABLE_PATTERNS: tuple[int, ...] = (1, 3, 4)


# The cumulative curves take the numpy module as an argument so that
# importing this module never imports numpy.


def _cumulative_uniform(np, t, window: float):
    # pattern 1: UniformArrivals.cumulative_fraction
    return np.minimum(np.maximum(t / window, 0.0), 1.0)


def _cumulative_front_loaded(np, t, window: float):
    # pattern 3: FrontLoadedArrivals.cumulative_fraction
    burst_fraction = 0.40
    burst_share = 1.0 / 12.0
    burst_end = window * burst_share
    burst_rate = burst_fraction / burst_end
    tail_rate = (1.0 - burst_fraction) / (window - burst_end)
    inside = np.where(
        t < burst_end,
        burst_rate * t,
        burst_fraction + tail_rate * (t - burst_end),
    )
    return np.where(t <= 0.0, 0.0, np.where(t >= window, 1.0, inside))


def _cumulative_bursty(np, t, window: float):
    # pattern 4: BurstyArrivals.cumulative_fraction — same op order as the
    # scalar code so every intermediate rounds identically
    num_bursts = 6
    burst_duration_fraction = 1.0 / 36.0
    burst_total_fraction = 0.60
    burst_len = window * burst_duration_fraction
    spacing = window / num_bursts
    floor_rate = (1.0 - burst_total_fraction) / window
    burst_rate = burst_total_fraction / (num_bursts * burst_len)
    burst_mass_per = burst_total_fraction / num_bursts
    full, offset = np.divmod(t, spacing)
    mass = full * burst_mass_per + floor_rate * (full * spacing)
    mass = mass + floor_rate * offset
    mass = mass + burst_rate * np.minimum(offset, burst_len)
    return np.where(t <= 0.0, 0.0, np.where(t >= window, 1.0, mass))


_CUMULATIVES = {
    1: _cumulative_uniform,
    3: _cumulative_front_loaded,
    4: _cumulative_bursty,
}


def vectorized_arrival_times(
    pattern_id: int, window_seconds: float, total_arrivals: int
) -> list[float]:
    """Deterministic arrival times, bit-identical to the scalar path.

    Mirrors ``generate_arrival_times(pattern, n, deterministic=True)``:
    the ``i``-th arrival lands at the quantile of ``(i + 0.5) / n``, found
    by 60 bisection steps over ``[0, window]``.  All ``n`` bisections run
    in lockstep as numpy vectors; because each step is a compare plus a
    midpoint (and the cumulative curves above use only float ops numpy
    and CPython round identically), every returned time equals the scalar
    engine's to the last bit.
    """
    import numpy as np

    if pattern_id not in _CUMULATIVES:
        raise ConfigurationError(
            f"arrival pattern {pattern_id} has no vectorized quantile; "
            f"vectorizable patterns: {VECTORIZABLE_PATTERNS}"
        )
    if total_arrivals <= 0:
        return []
    cumulative = _CUMULATIVES[pattern_id]
    n = total_arrivals
    fractions = (np.arange(n, dtype=np.float64) + 0.5) / n
    lo = np.zeros(n, dtype=np.float64)
    hi = np.full(n, window_seconds, dtype=np.float64)
    for _ in range(60):
        mid = (lo + hi) / 2.0
        below = cumulative(np, mid, window_seconds) < fractions
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return ((lo + hi) / 2.0).tolist()
