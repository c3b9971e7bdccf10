"""Media-data assignment algorithms (Section 3 of the paper).

The central algorithm is :func:`ots_assignment` — the paper's ``OTS_p2p``
(Figure 2) — which distributes the segments of one assignment period over the
supplying peers so that the requesting peer experiences the minimum possible
buffering delay (``n·δt`` for ``n`` suppliers; Theorem 1).

Two baselines are provided for comparison:

* :func:`contiguous_assignment` — each supplier gets a contiguous block of
  segments proportional to its bandwidth.  This is "Assignment I" in the
  paper's Figure 1 and is *sub*-optimal.
* :func:`round_robin_assignment` — segments are dealt round-robin in
  increasing order, one per supplier per turn, honoring quotas.  A natural
  strawman that is also sub-optimal in general.

All assignments describe a single period of ``2**L`` segments (``L`` = lowest
supplier class present) and repeat verbatim for the rest of the media file.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core import segments as seg
from repro.core.model import ClassLadder, SupplierOffer, sort_offers_descending
from repro.errors import AssignmentError

__all__ = [
    "Assignment",
    "ots_assignment",
    "sweep_assignment",
    "contiguous_assignment",
    "round_robin_assignment",
]


@dataclass(frozen=True)
class Assignment:
    """A per-period media-data assignment.

    Attributes
    ----------
    suppliers:
        The supplier offers, sorted by descending bandwidth (the order used
        by the assignment algorithms).
    period_len:
        Number of segments in one assignment period (``2**L``).
    segment_lists:
        ``segment_lists[j]`` is the tuple of *period-local* segment indices
        (each in ``0..period_len-1``) carried by ``suppliers[j]``, in
        increasing (i.e. transmission) order.
    algorithm:
        Name of the algorithm that produced the assignment, for reporting.
    """

    suppliers: tuple[SupplierOffer, ...]
    period_len: int
    segment_lists: tuple[tuple[int, ...], ...]
    algorithm: str = "ots"

    def __post_init__(self) -> None:
        if len(self.suppliers) != len(self.segment_lists):
            raise AssignmentError(
                "segment_lists and suppliers must have the same length"
            )
        assigned = sorted(
            index for segments in self.segment_lists for index in segments
        )
        if assigned != list(range(self.period_len)):
            raise AssignmentError(
                f"assignment must cover each of the {self.period_len} period "
                f"segments exactly once; got {assigned}"
            )

    @property
    def num_suppliers(self) -> int:
        """Number of supplying peers participating in the session."""
        return len(self.suppliers)

    def supplier_of_segment(self, local_index: int) -> SupplierOffer:
        """Return the supplier carrying period-local segment ``local_index``."""
        for supplier, segments in zip(self.suppliers, self.segment_lists):
            if local_index in segments:
                return supplier
        raise AssignmentError(f"segment {local_index} not covered by assignment")

    def quota_of(self, supplier_index: int) -> int:
        """Number of segments per period carried by ``suppliers[supplier_index]``."""
        return len(self.segment_lists[supplier_index])

    def describe(self) -> str:
        """Human-readable one-line-per-supplier description of the assignment."""
        lines = [f"{self.algorithm} assignment over period of {self.period_len} segments:"]
        for supplier, segments in zip(self.suppliers, self.segment_lists):
            lines.append(
                f"  peer {supplier.peer_id} (class {supplier.peer_class}, "
                f"{supplier.units} units): segments {list(segments)}"
            )
        return "\n".join(lines)


def _prepare(
    offers: Sequence[SupplierOffer], ladder: ClassLadder
) -> tuple[list[SupplierOffer], int, list[int]]:
    """Shared validation: sort offers, compute period length and quotas."""
    if not offers:
        raise AssignmentError("cannot assign media data to an empty supplier set")
    seg.check_feasible(offers, ladder)
    ordered = sort_offers_descending(list(offers))
    lowest = seg.lowest_class(ordered)
    period_len = seg.period_segments(lowest)
    quotas = [seg.quota(offer.peer_class, lowest) for offer in ordered]
    return ordered, period_len, quotas


def ots_assignment(
    offers: Sequence[SupplierOffer], ladder: ClassLadder | None = None
) -> Assignment:
    """Algorithm ``OTS_p2p``: the optimal media-data assignment.

    Each supplier ``j`` of class ``c`` transmits its assigned segments
    back-to-back, so its ``q``-th segment (1-based, in increasing segment
    order) arrives exactly ``q * 2**c`` slots into each period.  The period
    therefore has a fixed *multiset of arrival slots*, and choosing an
    assignment is choosing a matching between segments and arrival slots.
    The buffering delay of a matching is ``max_s (arrival(s) - s)``, which
    is minimized by the **sorted matching**: pair the ``i``-th earliest
    segment with the ``i``-th earliest arrival slot (a standard exchange
    argument — swapping any inversion never decreases the max).

    The sorted matching achieves the Theorem-1 minimum of ``n`` slots for
    ``n`` suppliers; the test suite verifies this against a brute-force
    oracle.  Note that the simplified pseudo-code printed as the paper's
    Figure 2 (see :func:`sweep_assignment`) matches this optimum on the
    paper's worked example but not on every input — the sorted matching
    (not the sweep) is the faithful reading of Theorem 1, and
    ``benchmarks/bench_theorem1_optimality.py`` pins the discrepancy.

    Parameters
    ----------
    offers:
        Supplier offers whose units sum to exactly ``R0``.  Any order is
        accepted; the algorithm sorts them itself.
    ladder:
        The class ladder; defaults to the paper's four classes.

    Returns
    -------
    Assignment
        An optimal per-period assignment (delay ``n`` slots).
    """
    ladder = ladder or ClassLadder()
    ordered, period_len, quotas = _prepare(offers, ladder)

    # Build the arrival-slot multiset: (arrival, supplier index).  Sorting
    # by arrival keeps each supplier's own slots in increasing order, so the
    # per-supplier segment lists come out increasing automatically.
    slots: list[tuple[int, int]] = []
    for j, offer in enumerate(ordered):
        per_segment = 1 << offer.peer_class
        for q in range(1, quotas[j] + 1):
            slots.append((q * per_segment, j))
    slots.sort()

    buckets: list[list[int]] = [[] for _ in ordered]
    for segment, (_arrival, j) in enumerate(slots):
        buckets[j].append(segment)

    return Assignment(
        suppliers=tuple(ordered),
        period_len=period_len,
        segment_lists=tuple(tuple(bucket) for bucket in buckets),
        algorithm="ots",
    )


def sweep_assignment(
    offers: Sequence[SupplierOffer], ladder: ClassLadder | None = None
) -> Assignment:
    """The literal sweep pseudo-code printed as the paper's Figure 2.

    Starting from the period's last segment, repeatedly sweep the suppliers
    in descending-bandwidth order, handing the current segment to the first
    supplier whose quota is not yet exhausted.  This reproduces the paper's
    Section-3 worked example exactly (Assignment II of Figure 1) and is
    optimal on it — but it is *not* optimal for every feasible supplier set
    (e.g. classes ``[1, 3, 3, 3, 4, 4]`` yield delay 7 instead of the
    Theorem-1 minimum 6).  It is retained as a comparison baseline and as
    documentation of the discrepancy; see :func:`ots_assignment` for the
    algorithm that realizes Theorem 1.
    """
    ladder = ladder or ClassLadder()
    ordered, period_len, quotas = _prepare(offers, ladder)
    remaining = list(quotas)
    buckets: list[list[int]] = [[] for _ in ordered]

    segment = period_len - 1
    while segment >= 0:
        for j in range(len(ordered)):
            if remaining[j] > 0:
                buckets[j].append(segment)
                remaining[j] -= 1
                segment -= 1
                if segment < 0:
                    break

    segment_lists = tuple(tuple(sorted(bucket)) for bucket in buckets)
    return Assignment(
        suppliers=tuple(ordered),
        period_len=period_len,
        segment_lists=segment_lists,
        algorithm="sweep",
    )


def contiguous_assignment(
    offers: Sequence[SupplierOffer], ladder: ClassLadder | None = None
) -> Assignment:
    """Baseline "Assignment I" of the paper's Figure 1.

    Segments ``0..period_len-1`` are handed out in contiguous blocks, one
    block per supplier in descending-bandwidth order, block sizes equal to
    the quotas.  Simple and intuition-friendly, but the requesting peer must
    wait longer before playback can start (Figure 1(a) shows ``5δt`` where
    OTS achieves ``4δt``).
    """
    ladder = ladder or ClassLadder()
    ordered, period_len, quotas = _prepare(offers, ladder)
    segment_lists: list[tuple[int, ...]] = []
    cursor = 0
    for q in quotas:
        segment_lists.append(tuple(range(cursor, cursor + q)))
        cursor += q
    return Assignment(
        suppliers=tuple(ordered),
        period_len=period_len,
        segment_lists=tuple(segment_lists),
        algorithm="contiguous",
    )


def round_robin_assignment(
    offers: Sequence[SupplierOffer], ladder: ClassLadder | None = None
) -> Assignment:
    """Baseline: deal segments round-robin from segment 0 upwards.

    Sweeps suppliers in descending-bandwidth order handing out segment
    ``0, 1, 2, ...`` one at a time, skipping suppliers whose quota is
    exhausted.  This is OTS_p2p mirrored: the *low*-bandwidth suppliers get
    early segments, which is close to the worst choice and makes a useful
    pessimistic baseline in benchmarks.
    """
    ladder = ladder or ClassLadder()
    ordered, period_len, quotas = _prepare(offers, ladder)
    remaining = list(quotas)
    buckets: list[list[int]] = [[] for _ in ordered]

    segment = 0
    while segment < period_len:
        for j in range(len(ordered)):
            if remaining[j] > 0:
                buckets[j].append(segment)
                remaining[j] -= 1
                segment += 1
                if segment >= period_len:
                    break

    return Assignment(
        suppliers=tuple(ordered),
        period_len=period_len,
        segment_lists=tuple(tuple(bucket) for bucket in buckets),
        algorithm="round_robin",
    )
