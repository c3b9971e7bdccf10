"""Multi-supplier streaming sessions (Sections 2–3 of the paper).

A :class:`StreamingSession` binds together:

* the requesting peer and the supplying peers (whose offers sum to ``R0``),
* the OTS_p2p assignment (or a baseline assignment, for comparisons),
* the timing facts that the rest of the system needs — the buffering delay,
  how long each supplier is busy, and when the requester finishes
  downloading (and is promoted to supplier).

Sessions are *plans*: they carry no clocks of their own.  The simulator
instantiates one per admission and schedules its end event from
:attr:`StreamingSession.transfer_seconds`.

:class:`ActiveSession` is the mutable in-flight counterpart used by the
session-lifecycle extension (:mod:`repro.simulation.lifecycle`): it pins
the live supplier set, the scheduled end event and the requester's buffer
position, so a mid-stream supplier departure can interrupt the session and
the recovery path can resume it from where the buffer left off.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.assignment import Assignment, ots_assignment
from repro.core.model import ClassLadder, SupplierOffer
from repro.core.schedule import TransmissionSchedule, min_start_delay_slots
from repro.errors import InfeasibleSessionError
from repro.streaming.media import MediaFile

__all__ = ["StreamingSession", "ActiveSession", "plan_session"]


class ActiveSession:
    """One in-flight streaming session, interruptible mid-stream.

    Where :class:`StreamingSession` is a static *plan*, an
    ``ActiveSession`` is the running instance the lifecycle-aware request
    path tracks: who is serving it right now, when its current leg
    started, how much transfer remains (the requester's buffer position),
    and the stall bookkeeping the continuity probes consume.  ``requester``
    and ``suppliers`` are the simulation's peer objects; this class never
    inspects them, so it stays free of simulation-layer imports.

    Attributes
    ----------
    requester / suppliers:
        The admitted requesting peer and the peers currently serving it.
    resumed_at:
        Simulated time the current leg started (admission or last resume).
    remaining_seconds:
        Transfer time still owed when the current leg started.  Under the
        ``resume`` recovery mode an interruption subtracts the elapsed
        leg; under ``restart`` it resets to the full transfer time.
    end_handle:
        Cancellable handle of the scheduled session-end event.
    interrupted_at:
        When the session was last interrupted (``None`` while streaming).
    interruptions / recovery_attempts / stall_seconds:
        Continuity bookkeeping: stalls suffered, failed recovery probes
        since the last interruption, and accumulated stall time.
    """

    __slots__ = (
        "requester",
        "suppliers",
        "resumed_at",
        "remaining_seconds",
        "end_handle",
        "interrupted_at",
        "interruptions",
        "recovery_attempts",
        "stall_seconds",
    )

    def __init__(
        self,
        requester,
        suppliers: list,
        resumed_at: float,
        remaining_seconds: float,
    ) -> None:
        self.requester = requester
        self.suppliers = suppliers
        self.resumed_at = resumed_at
        self.remaining_seconds = remaining_seconds
        self.end_handle = None
        self.interrupted_at: float | None = None
        self.interruptions = 0
        self.recovery_attempts = 0
        self.stall_seconds = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ActiveSession(requester={getattr(self.requester, 'peer_id', '?')}, "
            f"suppliers={len(self.suppliers)}, "
            f"remaining={self.remaining_seconds:.0f}s, "
            f"interruptions={self.interruptions})"
        )


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
