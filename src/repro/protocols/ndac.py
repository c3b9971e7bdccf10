"""NDAC_p2p — the non-differentiated baseline of the paper's Section 5.

"The admission probability vector of each supplying peer is always
``[1.0, 1.0, 1.0, 1.0]``" — every request that reaches an idle supplier is
granted, nothing is ever elevated or tightened, and reminders are pointless
(there is no differentiation to tighten).  All other machinery (``M``
candidates, backoff, OTS_p2p) is identical to DAC_p2p, so the ``"ndac"``
row of :data:`~repro.protocols.base.POLICY_REGISTRY` is this state machine
with reminders and idle elevation switched off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.admission import AdmissionVector
from repro.core.model import ClassLadder
from repro.errors import ConfigurationError

__all__ = ["NdacSupplierState"]


@dataclass(slots=True)
class NdacSupplierState:
    """All-ones vector, no dynamics — only the busy flag does anything."""

    own_class: int
    ladder: ClassLadder
    vector: AdmissionVector = field(init=False)
    busy: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        self.ladder.validate_class(self.own_class)
        self.vector = AdmissionVector.all_ones(self.ladder)

    def on_session_start(self) -> None:
        """Mark busy; NDAC has no other session bookkeeping."""
        if self.busy:
            raise ConfigurationError("NDAC supplier enlisted while already busy")
        self.busy = True

    def on_request_while_busy(self, requester_class: int) -> None:
        """No-op: NDAC keeps no favored-class records."""

    def on_reminder(self, requester_class: int) -> None:
        """No-op: reminders have no effect on an all-ones vector."""

    def on_session_end(self) -> None:
        """Mark idle; the vector never changes."""
        self.busy = False

    def on_idle_timeout(self) -> bool:
        """Nothing to elevate; report 'no change' so timers are not re-armed."""
        return False

    def grant_probability(self, requester_class: int) -> float:
        """Always 1.0 — NDAC admits whoever reaches an idle supplier."""
        if not (
            requester_class.__class__ is int
            and 1 <= requester_class <= self.ladder.num_classes
        ):
            self.ladder.validate_class(requester_class)
        return 1.0

    def favors(self, requester_class: int) -> bool:
        """Every class is favored."""
        if not (
            requester_class.__class__ is int
            and 1 <= requester_class <= self.ladder.num_classes
        ):
            self.ladder.validate_class(requester_class)
        return True

    def lowest_favored_class(self) -> int:
        """Always the bottom of the ladder."""
        return self.ladder.num_classes
