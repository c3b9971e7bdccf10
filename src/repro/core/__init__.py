"""Core algorithms of the paper: the model, OTS_p2p, and DAC_p2p mechanics.

This package contains the paper's primary contribution in pure, simulator-
independent form:

* :mod:`repro.core.model` — the peer/bandwidth-class model of Section 2;
* :mod:`repro.core.segments` — segment-geometry arithmetic;
* :mod:`repro.core.assignment` — Algorithm OTS_p2p and baseline assignments;
* :mod:`repro.core.schedule` — transmission timelines and buffering delay;
* :mod:`repro.core.theorems` — Theorem 1 and a brute-force optimality oracle;
* :mod:`repro.core.admission` — DAC_p2p supplier-side probability vectors;
* :mod:`repro.core.requesting` — DAC_p2p requester-side decision logic;
* :mod:`repro.core.capacity` — system-capacity accounting.
"""

from repro.core.model import ClassLadder, SupplierOffer
from repro.core.assignment import (
    Assignment,
    contiguous_assignment,
    ots_assignment,
    round_robin_assignment,
    sweep_assignment,
)
from repro.core.schedule import (
    TransmissionSchedule,
    min_start_delay_slots,
    verify_continuous_playback,
)
from repro.core.theorems import theorem1_min_delay_slots, brute_force_min_delay_slots
from repro.core.admission import AdmissionVector, SupplierAdmissionState
from repro.core.requesting import (
    CandidateReport,
    backoff_delay,
    choose_reminder_set,
    greedy_fill,
)
from repro.core.capacity import CapacityLedger, max_capacity_sessions

__all__ = [
    "ClassLadder",
    "SupplierOffer",
    "Assignment",
    "ots_assignment",
    "sweep_assignment",
    "contiguous_assignment",
    "round_robin_assignment",
    "TransmissionSchedule",
    "min_start_delay_slots",
    "verify_continuous_playback",
    "theorem1_min_delay_slots",
    "brute_force_min_delay_slots",
    "AdmissionVector",
    "SupplierAdmissionState",
    "CandidateReport",
    "greedy_fill",
    "choose_reminder_set",
    "backoff_delay",
    "CapacityLedger",
    "max_capacity_sessions",
]
