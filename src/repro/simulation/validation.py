"""Post-run invariant auditing.

A simulation can silently drift from the paper's model (a supplier serving
two sessions, a session using more than ``R0``, a peer admitted without
ever requesting).  :func:`audit_system` sweeps a finished
:class:`~repro.simulation.arrayengine.ArrayEngine` run and its optional
trace, and returns a structured report of every violated invariant.  The
golden suite audits every pinned run, the integration suite asserts the
report is empty, and long experiment campaigns can audit cheaply instead
of re-deriving everything from traces.

The engine's columns are read back as one row per peer.  There a nonzero
admission ``level`` means supplier, a NaN ``admitted_time`` means not
admitted, and the ``departed`` flag excludes a peer from the ledger
recount.

Invariants checked
------------------
**State invariants** (from the final system state)

* S1  every admitted non-seed peer is now a supplier, except the
      requesters still streaming at the horizon (promoted only when the
      transfer ends) and those of lost sessions: the lifecycle extension
      never promotes a requester whose session it loses (under
      ``abandon``, or when the recovery backoff passes the horizon), so
      the number of other unpromoted admitted peers must equal the number
      of lost sessions exactly;
* S2  every supplier has valid admission state;
* S3  the capacity ledger equals a recount over the supplier population,
      and per class so do its supplier count and the engine's running
      Σ|level| that Figure 7 reads;
* S4  per-peer bookkeeping is consistent (admitted ⇒ first request;
      waiting time non-negative; buffering delay equals supplier count);
* S5  admitted peers' buffering delays respect Theorem-1 bounds
      (``2 <= n <= M``) on the paper's ladder;
* S6  metrics counters are self-consistent (admissions ≤ first requests,
      requests = first requests + retries ≥ rejections).

**Trace invariants** (when a trace was recorded; they read only each
peer's class)

* T1  no supplier is enlisted into two overlapping sessions: an
      admission holds its suppliers for the show time, an interruption
      frees them, and a resumption holds its new ones for the
      ``remaining_seconds`` it records;
* T2  every admission's suppliers aggregate to exactly ``R0``;
* T3  backoffs follow ``T_bkf · E_bkf**(i-1)``;
* T4  event times are within the horizon and non-decreasing.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.simulation.arrayengine import ArrayEngine
from repro.simulation.lifecycle import LIFECYCLE_MODELS
from repro.simulation.trace import TraceRecorder

__all__ = ["Violation", "AuditReport", "audit_system"]


@dataclass(frozen=True)
class Violation:
    """One violated invariant."""

    invariant: str
    message: str


@dataclass
class AuditReport:
    """Outcome of a system audit."""

    violations: list[Violation] = field(default_factory=list)
    checks_run: int = 0

    @property
    def ok(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations

    def add(self, invariant: str, message: str) -> None:
        """Record one violation."""
        self.violations.append(Violation(invariant, message))

    def summary(self) -> str:
        """One line per violation, or an all-clear."""
        if self.ok:
            return f"audit ok ({self.checks_run} checks)"
        lines = [f"audit FAILED: {len(self.violations)} violation(s)"]
        lines += [f"  [{v.invariant}] {v.message}" for v in self.violations]
        return "\n".join(lines)


class _AuditedPeer(NamedTuple):
    """What the state audit reads of one peer, from the engine's columns."""

    peer_id: int
    peer_class: int
    is_supplier: bool
    #: the signed admission level, or None when it is no valid level
    admission: int | None
    departed: bool
    first_request_time: float | None
    admitted_time: float | None
    buffering_delay_slots: int | None
    num_suppliers_served_by: int | None


def _audited_peers(engine: ArrayEngine) -> Iterator[_AuditedPeer]:
    peers = engine.peers
    num_classes = engine.ladder.num_classes
    for pid in range(len(peers)):
        level = peers.level[pid]
        admitted_time = peers.admitted_time[pid]
        admitted = admitted_time == admitted_time  # NaN until admitted
        yield _AuditedPeer(
            pid,
            peers.peer_class[pid],
            level != 0,
            level if 1 <= abs(level) <= num_classes else None,
            bool(peers.departed[pid]),
            peers.first_request_time[pid],
            admitted_time if admitted else None,
            peers.buffering_delay_slots[pid] if admitted else None,
            peers.num_suppliers_served_by[pid] if admitted else None,
        )


def _streaming_at_horizon(system: ArrayEngine, requesters: list) -> set[int]:
    """The ids of the admitted ``requesters`` still streaming at the horizon.

    An untracked session (``none``, ``graceful``) ends a show after its
    admission.  A tracked one ends later by each recovery's latency (by a
    whole show under ``restart``), so it is live while the engine still
    holds it: an allocated session slot.
    """
    config = system.config
    if not LIFECYCLE_MODELS[config.lifecycle].interrupts_sessions:
        show = system.media.show_seconds
        return {
            peer.peer_id
            for peer in requesters
            if peer.admitted_time + show > config.horizon_seconds
        }
    sessions = system.sessions
    free = set(sessions.free_slots)
    return {pid for slot, pid in enumerate(sessions.requester) if slot not in free}


def _audit_state(system: ArrayEngine, report: AuditReport) -> None:
    ladder = system.ladder
    metrics = system.metrics

    admitted_requesters: list = []  # admitted, but not suppliers
    # per class: [live suppliers, Σ|level| over them]
    recount = {c: [0, 0] for c in ladder.classes}
    for peer in _audited_peers(system):
        report.checks_run += 1
        admitted = peer.admitted_time is not None  # never true of a seed
        if admitted and not peer.is_supplier:
            admitted_requesters.append(peer)
        if peer.is_supplier and not peer.departed:
            live = recount[peer.peer_class]
            live[0] += 1
            live[1] += abs(peer.admission or 0)
        if peer.is_supplier and peer.admission is None:
            report.add("S2", f"supplier {peer.peer_id} has no admission state")
        if admitted:
            if peer.first_request_time is None:
                report.add(
                    "S4", f"peer {peer.peer_id} admitted without a first request"
                )
            elif peer.admitted_time < peer.first_request_time:
                report.add("S4", f"peer {peer.peer_id} admitted before requesting")
            if peer.buffering_delay_slots != peer.num_suppliers_served_by:
                report.add(
                    "S4",
                    f"peer {peer.peer_id}: delay {peer.buffering_delay_slots} != "
                    f"supplier count {peer.num_suppliers_served_by} (Theorem 1)",
                )
            if peer.num_suppliers_served_by is not None and not (
                2 <= peer.num_suppliers_served_by <= system.config.probe_candidates
            ):
                report.add(
                    "S5",
                    f"peer {peer.peer_id} served by "
                    f"{peer.num_suppliers_served_by} suppliers, outside "
                    f"[2, M={system.config.probe_candidates}]",
                )

    report.checks_run += 1
    streaming = _streaming_at_horizon(system, admitted_requesters)
    unpromoted = [
        peer.peer_id for peer in admitted_requesters if peer.peer_id not in streaming
    ]
    lost = sum(metrics.sessions_lost.values())
    if len(unpromoted) != lost:
        shown = ", ".join(str(pid) for pid in unpromoted[:5])
        more = ", ..." if len(unpromoted) > 5 else ""
        report.add(
            "S1",
            f"{len(unpromoted)} admitted peer(s) are neither suppliers nor streaming "
            f"[{shown}{more}] but {lost} session(s) were lost; only a lost "
            "session leaves its requester unpromoted",
        )

    report.checks_run += 1
    recount_units = sum(ladder.offer_units(c) * n for c, (n, _) in recount.items())
    if recount_units != system.ledger.total_units:
        report.add(
            "S3",
            f"ledger says {system.ledger.total_units} units, recount says "
            f"{recount_units}",
        )
    for peer_class, (count, level_sum) in recount.items():
        held = (
            system.ledger.per_class_count[peer_class],
            system._favored_sum[peer_class],
        )
        if held != (count, level_sum):
            report.add(
                "S3",
                f"class {peer_class}: the engine holds {held[0]} live "
                f"suppliers with level sum {held[1]}, recount says {count} "
                f"with {level_sum}",
            )

    report.checks_run += 1
    for peer_class in ladder.classes:
        if metrics.admitted[peer_class] > metrics.first_requests[peer_class]:
            report.add(
                "S6",
                f"class {peer_class}: admitted {metrics.admitted[peer_class]} > "
                f"first requests {metrics.first_requests[peer_class]}",
            )
        if metrics.requests[peer_class] < metrics.first_requests[peer_class]:
            report.add("S6", f"class {peer_class}: requests < first requests")


def _audit_trace(
    system: ArrayEngine, trace: TraceRecorder, report: AuditReport
) -> None:
    ladder = system.ladder
    config = system.config
    show_seconds = system.media.show_seconds
    peer_classes = system.peers.peer_class

    busy_until: dict[int, float] = {}
    # each requester's current suppliers, freed if its session is interrupted
    serving: dict[int, list[int]] = {}
    previous_time = 0.0
    for event in trace.events:
        report.checks_run += 1
        time = event["t"]
        kind = event["kind"]
        if time < previous_time:
            report.add("T4", f"event at {time} after event at {previous_time}")
        previous_time = max(previous_time, time)
        if time > config.horizon_seconds + 1e-9:
            report.add("T4", f"event at {time} beyond horizon")

        if kind == "admission" or kind == "session_resumed":
            # a resumed session holds its new suppliers only for the
            # transfer that remains
            hold = (
                show_seconds if kind == "admission" else event["remaining_seconds"]
            )
            for supplier_id in event["suppliers"]:
                if busy_until.get(supplier_id, -1.0) > time + 1e-9:
                    report.add(
                        "T1",
                        f"supplier {supplier_id} enlisted at {time} while busy "
                        f"until {busy_until[supplier_id]}",
                    )
                busy_until[supplier_id] = time + hold
            serving[event["peer"]] = event["suppliers"]
        elif kind == "session_interrupted":
            for supplier_id in serving.pop(event["peer"], ()):
                busy_until[supplier_id] = time

        if kind == "admission":
            units = sum(
                ladder.offer_units(peer_classes[supplier_id])
                for supplier_id in event["suppliers"]
            )
            if units != ladder.full_rate_units:
                report.add(
                    "T2",
                    f"admission of peer {event['peer']} at {time} aggregates "
                    f"{units} units, needs {ladder.full_rate_units}",
                )
        elif kind == "rejection":
            expected = config.t_bkf_seconds * config.e_bkf ** (
                event["rejections"] - 1
            )
            if abs(event["backoff_seconds"] - expected) > 1e-6:
                report.add(
                    "T3",
                    f"peer {event['peer']} backoff {event['backoff_seconds']} "
                    f"!= expected {expected}",
                )


def audit_system(
    system: ArrayEngine, trace: TraceRecorder | None = None
) -> AuditReport:
    """Audit a finished run against the model invariants."""
    report = AuditReport()
    _audit_state(system, report)
    if trace is not None:
        _audit_trace(system, trace, report)
    return report
