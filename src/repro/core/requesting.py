"""Requester-side DAC_p2p logic (Section 4.2 of the paper).

A requesting peer of class ``c``:

1. obtains ``M`` random candidate supplying peers (with classes) from the
   lookup substrate;
2. contacts them from high class to low class; each contacted candidate that
   is up and idle grants with probability ``Pa[c]`` of its own vector;
3. accepts granted offers greedily while they fit the remaining bandwidth
   deficit — the power-of-two offer ladder guarantees the greedy descending
   fill is exact (see :func:`greedy_fill`);
4. is **admitted** when the accepted offers sum to exactly ``R0``; otherwise
   it is **rejected**, leaves *reminders* with busy candidates that favor
   class ``c`` (up to the shortfall, high class first —
   :func:`choose_reminder_set`), and backs off exponentially
   (:func:`backoff_delay`).

This module is pure decision logic over candidate *reports*.
:class:`~repro.simulation.arrayengine.ArrayEngine` runs the same steps
inline over its peer columns, and
``tests/simulation/test_admission_columns.py`` replays the engine's probes
through :func:`greedy_fill` and :func:`choose_reminder_set` to check that
it chose the same suppliers and reminders.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.model import ClassLadder
from repro.errors import ConfigurationError

__all__ = [
    "CandidateStatus",
    "CandidateReport",
    "greedy_fill",
    "choose_reminder_set",
    "backoff_delay",
]


class CandidateStatus(enum.Enum):
    """What a requesting peer learns when it contacts a candidate supplier."""

    GRANTED = "granted"          # up, idle, and passed the probability test
    DENIED = "denied"            # up, idle, but failed the probability test
    BUSY = "busy"                # up, but serving another session
    DOWN = "down"                # unreachable


@dataclass(frozen=True, slots=True)
class CandidateReport:
    """Result of contacting one candidate supplying peer.

    ``favors_requester`` is only meaningful for ``BUSY`` candidates: it
    records whether the busy supplier *currently favors* the requester's
    class, the precondition for it to accept a reminder.
    """

    peer_id: int
    peer_class: int
    units: int
    status: CandidateStatus
    favors_requester: bool = False


def greedy_fill(
    granted: Sequence[CandidateReport], ladder: ClassLadder
) -> tuple[list[CandidateReport], int]:
    """Select granted offers covering ``R0`` exactly, largest offers first.

    Scanning offers in descending order of units, an offer is taken whenever
    it does not overshoot the remaining deficit.  Because every offer is
    ``R0 / 2**i`` and the deficit starts at ``R0``, the deficit is always a
    multiple of the current offer when scanning descending — so greedy never
    strands bandwidth and fills exactly whenever any subset can.

    Returns ``(selected, remaining_deficit_units)``; a zero deficit means a
    feasible session.
    """
    deficit = ladder.full_rate_units
    selected: list[CandidateReport] = []
    for report in sorted(granted, key=lambda c: (-c.units, c.peer_id)):
        if report.status is not CandidateStatus.GRANTED:
            raise ConfigurationError(
                f"greedy_fill given a non-granted report: {report.status}"
            )
        if report.units <= deficit:
            selected.append(report)
            deficit -= report.units
        if deficit == 0:
            break
    return selected, deficit


def choose_reminder_set(
    busy_candidates: Sequence[CandidateReport],
    shortfall_units: int,
) -> list[CandidateReport]:
    """Pick the busy candidates that receive a reminder (paper Section 4.2).

    From high-class to low-class busy candidates, take the first ones that
    (1) currently favor the requester's class and (2) whose aggregate offer
    covers — without overshooting — the requester's bandwidth shortfall.
    The same power-of-two argument as in :func:`greedy_fill` applies, so the
    scan is a plain greedy fill against ``shortfall_units``.
    """
    if shortfall_units <= 0:
        return []
    remaining = shortfall_units
    chosen: list[CandidateReport] = []
    ordered = sorted(busy_candidates, key=lambda c: (-c.units, c.peer_id))
    for report in ordered:
        if report.status is not CandidateStatus.BUSY or not report.favors_requester:
            continue
        if report.units <= remaining:
            chosen.append(report)
            remaining -= report.units
        if remaining == 0:
            break
    return chosen


def backoff_delay(
    rejections: int, t_bkf_seconds: float, e_bkf: float
) -> float:
    """Backoff before the next retry after the ``rejections``-th rejection.

    The paper: after the ``i``-th rejection a requesting peer waits
    ``T_bkf * E_bkf**(i-1)`` before asking again (``T_bkf = 10 min`` and
    ``E_bkf = 2`` in the evaluation; Figure 9 sweeps ``E_bkf``).
    """
    if rejections < 1:
        raise ConfigurationError(
            f"backoff is defined after the first rejection, got {rejections}"
        )
    if t_bkf_seconds <= 0 or e_bkf < 1:
        raise ConfigurationError(
            f"invalid backoff parameters T_bkf={t_bkf_seconds}, E_bkf={e_bkf}"
        )
    return t_bkf_seconds * e_bkf ** (rejections - 1)
