"""Multi-supplier streaming sessions (Sections 2–3 of the paper).

A :class:`StreamingSession` binds together:

* the requesting peer and the supplying peers (whose offers sum to ``R0``),
* the OTS_p2p assignment (or a baseline assignment, for comparisons),
* the timing facts that the rest of the system needs — the buffering delay,
  how long each supplier is busy, and when the requester finishes
  downloading (and is promoted to supplier).

Sessions are *plans*: they carry no clocks of their own.  The simulator
plans one per supplier-class multiset for the buffering delay, and keeps
the in-flight sessions of the lifecycle extension (who serves them, how
much transfer remains) as columns of
:class:`~repro.simulation.arraystate.SessionTable`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.assignment import Assignment, ots_assignment
from repro.core.model import ClassLadder, SupplierOffer
from repro.core.schedule import TransmissionSchedule, min_start_delay_slots
from repro.errors import InfeasibleSessionError
from repro.streaming.media import MediaFile

__all__ = ["StreamingSession", "plan_session"]


@dataclass(frozen=True)
class StreamingSession:
    """An admitted peer-to-peer streaming session, fully planned.

    Attributes
    ----------
    requester_id / requester_class:
        The admitted requesting peer.
    assignment:
        Per-period media-data assignment over the suppliers.
    media:
        The media file being streamed.
    buffering_delay_slots:
        Minimum start delay under ``assignment``; equals the number of
        suppliers when the assignment is OTS_p2p (Theorem 1).
    """

    requester_id: int
    requester_class: int
    assignment: Assignment
    media: MediaFile
    buffering_delay_slots: int

    @property
    def suppliers(self) -> tuple[SupplierOffer, ...]:
        """The supplying peers serving this session."""
        return self.assignment.suppliers

    @property
    def num_suppliers(self) -> int:
        """How many supplying peers participate."""
        return len(self.assignment.suppliers)

    @property
    def buffering_delay_seconds(self) -> float:
        """Buffering delay in wall-clock seconds (``slots · δt``)."""
        return self.media.slots_to_seconds(self.buffering_delay_slots)

    @property
    def transfer_seconds(self) -> float:
        """Time from transmission start until every byte has arrived.

        The aggregate supply rate equals ``R0`` and every supplier's pipe is
        kept full, so the transfer takes exactly the show time — each
        supplier is busy for the whole of it.  (A final-period tail could
        release some suppliers marginally earlier; the paper treats session
        length as the show time and so do we.)
        """
        return self.media.show_seconds

    @property
    def playback_end_seconds(self) -> float:
        """When playback finishes: show time plus the buffering delay."""
        return self.media.show_seconds + self.buffering_delay_seconds

    def schedule(self) -> TransmissionSchedule:
        """The segment-arrival schedule implied by the assignment."""
        return TransmissionSchedule.from_assignment(self.assignment)

    def supplier_busy_seconds(self, supplier_index: int) -> float:
        """How long ``suppliers[supplier_index]`` is busy with this session."""
        if not 0 <= supplier_index < self.num_suppliers:
            raise InfeasibleSessionError(
                f"supplier index {supplier_index} out of range 0..{self.num_suppliers - 1}"
            )
        return self.media.show_seconds

    def describe(self) -> str:
        """Multi-line human-readable session summary."""
        lines = [
            f"session for peer {self.requester_id} (class {self.requester_class}):",
            f"  suppliers: "
            + ", ".join(
                f"{s.peer_id}(c{s.peer_class})" for s in self.suppliers
            ),
            f"  buffering delay: {self.buffering_delay_slots} slots "
            f"({self.buffering_delay_seconds:.1f} s)",
            f"  transfer time: {self.transfer_seconds:.0f} s",
        ]
        return "\n".join(lines)


def plan_session(
    requester_id: int,
    requester_class: int,
    offers: Sequence[SupplierOffer],
    media: MediaFile,
    ladder: ClassLadder | None = None,
    assignment: Assignment | None = None,
) -> StreamingSession:
    """Plan a streaming session: run OTS_p2p and package the timing facts.

    This is what an admitted requesting peer executes (Section 4.2): compute
    the optimal assignment over the granted suppliers, then notify them —
    the notification being the simulator's job.

    Parameters
    ----------
    assignment:
        Pass an explicit (possibly non-OTS) assignment to study baselines;
        by default OTS_p2p is used, as in the paper.
    """
    ladder = ladder or ClassLadder()
    if assignment is None:
        assignment = ots_assignment(offers, ladder)
    delay = min_start_delay_slots(assignment)
    return StreamingSession(
        requester_id=requester_id,
        requester_class=requester_class,
        assignment=assignment,
        media=media,
        buffering_delay_slots=delay,
    )
