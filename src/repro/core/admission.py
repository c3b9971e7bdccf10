"""Supplier-side DAC_p2p mechanics (Section 4.1 of the paper).

Every supplying peer runs a small state machine around an *admission
probability vector* ``Pa[1..N]``:

* ``Pa[j]`` is the probability with which the supplier grants a streaming
  request from a class-``j`` requesting peer (applied only when the supplier
  is up and idle);
* class ``j`` is *favored* when ``Pa[j] == 1.0``;
* the vector starts biased toward the supplier's own class and above
  (all-ones there, halving per class below);
* it **relaxes** (doubles the sub-1 entries) after every ``T_out`` of
  idleness, and after a served session during which no favored-class request
  arrived;
* it **tightens** (re-initializes as if the supplier belonged to class
  ``k̂``) when requesting peers of favored classes left *reminders* during
  the session, ``k̂`` being the highest such class.

The timing of updates (idle timers, session boundaries) is owned by the
simulation layer; this module is pure state + transitions so it can be unit-
and property-tested in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.model import ClassLadder
from repro.errors import ConfigurationError

__all__ = ["AdmissionVector", "SupplierAdmissionState"]


@dataclass(slots=True)
class AdmissionVector:
    """The admission probability vector ``Pa[1..N]`` of one supplying peer.

    Probabilities are kept as exact floats on the ladder
    ``1, 1/2, 1/4, ...`` — every operation (init, halve-per-class, double)
    stays on powers of two, so float equality against ``1.0`` is exact and
    the paper's "favored class" predicate is well defined.

    Examples
    --------
    The paper's worked example — a class-2 supplier with ``N = 4``:

    >>> vec = AdmissionVector.initial(own_class=2, ladder=ClassLadder(4))
    >>> vec.probabilities
    [1.0, 1.0, 0.5, 0.25]
    >>> vec.favored_classes()
    [1, 2]
    >>> vec.lowest_favored_class()
    2
    """

    ladder: ClassLadder
    #: ``probabilities[j-1]`` is ``Pa[j]``.
    probabilities: list[float]

    @classmethod
    def initial(cls, own_class: int, ladder: ClassLadder) -> "AdmissionVector":
        """Paper rule (a): all-ones through ``own_class``, halving below it."""
        ladder.validate_class(own_class)
        probabilities = [
            1.0 if j <= own_class else 0.5 ** (j - own_class) for j in ladder.classes
        ]
        return cls(ladder=ladder, probabilities=probabilities)

    @classmethod
    def all_ones(cls, ladder: ClassLadder) -> "AdmissionVector":
        """The NDAC_p2p vector: every class is always favored."""
        return cls(ladder=ladder, probabilities=[1.0] * ladder.num_classes)

    def probability_for(self, requester_class: int) -> float:
        """``Pa[requester_class]``.

        Millions of calls per run (every probe's grant test, every
        favored-class query), so the valid-class fast path indexes the
        vector directly; invalid classes fall through to the ladder's
        validation for its precise error.  ``__class__ is int`` excludes
        ``bool`` exactly as ``validate_class`` does.
        """
        if requester_class.__class__ is int and 1 <= requester_class <= len(
            self.probabilities
        ):
            return self.probabilities[requester_class - 1]
        self.ladder.validate_class(requester_class)
        return self.probabilities[requester_class - 1]  # pragma: no cover

    def is_favored(self, requester_class: int) -> bool:
        """Paper definition: class ``j`` is favored iff ``Pa[j] == 1.0``."""
        return self.probability_for(requester_class) == 1.0

    def favored_classes(self) -> list[int]:
        """All favored class indices, highest class first."""
        return [
            j + 1 for j, value in enumerate(self.probabilities) if value == 1.0
        ]

    def lowest_favored_class(self) -> int:
        """The numerically largest favored class (Figure 7's y-axis).

        The initial vector always favors the supplier's own class, and
        relax/tighten preserve "``Pa[1..k]`` all-ones for some ``k >= 1``",
        so at least class 1 is favored at all times.  The array engine
        reads each class's initial ``level`` off it, and it is the
        idle-timer saturation guard, hence the bare backwards scan
        instead of ``max(self.favored_classes())``.
        """
        probabilities = self.probabilities
        for index in range(len(probabilities) - 1, -1, -1):
            if probabilities[index] == 1.0:
                return index + 1
        raise ConfigurationError(
            "admission vector favors no class at all; the paper's invariant "
            "guarantees Pa[1] == 1.0 at all times"
        )

    def elevate(self) -> bool:
        """Paper rules (b)/(c-relax): double every sub-one probability.

        Returns ``True`` if any entry changed (i.e. the vector was not yet
        all-ones), which lets callers stop re-arming idle timers once the
        vector saturates.
        """
        changed = False
        for index, value in enumerate(self.probabilities):
            if value < 1.0:
                self.probabilities[index] = min(1.0, value * 2.0)
                changed = True
        return changed

    def tighten(self, reminder_class: int) -> None:
        """Paper rule (c-tighten): re-initialize around class ``k̂``.

        ``reminder_class`` is the highest (numerically smallest) class among
        the requesting peers that left reminders during the just-finished
        session.
        """
        self.ladder.validate_class(reminder_class)
        self.probabilities = [
            1.0 if j <= reminder_class else 0.5 ** (j - reminder_class)
            for j in self.ladder.classes
        ]

    def is_saturated(self) -> bool:
        """True when every class is favored (no further elevation possible)."""
        return all(value == 1.0 for value in self.probabilities)

    def copy(self) -> "AdmissionVector":
        """Independent copy (the simulator snapshots vectors for metrics)."""
        return AdmissionVector(ladder=self.ladder, probabilities=list(self.probabilities))


@dataclass(slots=True)
class SupplierAdmissionState:
    """Full supplier-side DAC_p2p state: vector + per-session bookkeeping.

    The simulation layer calls the ``on_*`` methods at the corresponding
    protocol events; this class implements the update rules of Section 4.1
    and nothing else (no clocks, no randomness — the admission *coin flip*
    itself lives with the caller, which owns the RNG).
    """

    own_class: int
    ladder: ClassLadder
    vector: AdmissionVector = field(init=False)
    busy: bool = field(default=False, init=False)
    #: True iff a favored-class request arrived while busy in this session.
    favored_request_while_busy: bool = field(default=False, init=False)
    #: Classes of requesters that left reminders during this session.
    reminder_classes: list[int] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        self.ladder.validate_class(self.own_class)
        self.vector = AdmissionVector.initial(self.own_class, self.ladder)

    # ------------------------------------------------------------------
    # protocol events
    # ------------------------------------------------------------------
    def on_session_start(self) -> None:
        """The supplier was enlisted into a streaming session."""
        if self.busy:
            raise ConfigurationError(
                "supplier enlisted into a session while already busy; the "
                "paper's model allows at most one session per supplier"
            )
        self.busy = True
        self.favored_request_while_busy = False
        self.reminder_classes = []

    def on_request_while_busy(self, requester_class: int) -> None:
        """A request arrived while the supplier was serving a session."""
        if self.favors(requester_class):
            self.favored_request_while_busy = True

    def on_reminder(self, requester_class: int) -> None:
        """A rejected requester left a reminder with this (busy) supplier."""
        self.reminder_classes.append(requester_class)

    def on_session_end(self) -> None:
        """Apply the paper's rule (c) at the end of a served session."""
        self.busy = False
        if self.reminder_classes:
            self.vector.tighten(min(self.reminder_classes))
        elif not self.favored_request_while_busy:
            self.vector.elevate()
        # A favored-class request without a reminder leaves the vector as-is.
        self.favored_request_while_busy = False
        self.reminder_classes = []

    def on_idle_timeout(self) -> bool:
        """Apply the paper's rule (b) after ``T_out`` of idleness.

        Returns ``True`` when the vector changed, so the caller knows whether
        re-arming the idle timer can still have an effect.
        """
        if self.busy:
            raise ConfigurationError("idle timeout fired while supplier is busy")
        return self.vector.elevate()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def grant_probability(self, requester_class: int) -> float:
        """Probability of granting a class-``requester_class`` request now.

        Called once per probed idle candidate — the vector's fast path is
        inlined rather than paying two method hops per probe.
        """
        probabilities = self.vector.probabilities
        if requester_class.__class__ is int and 1 <= requester_class <= len(
            probabilities
        ):
            return probabilities[requester_class - 1]
        return self.vector.probability_for(requester_class)

    def favors(self, requester_class: int) -> bool:
        """Whether this supplier currently favors ``requester_class``."""
        probabilities = self.vector.probabilities
        if requester_class.__class__ is int and 1 <= requester_class <= len(
            probabilities
        ):
            return probabilities[requester_class - 1] == 1.0
        return self.vector.is_favored(requester_class)

    def lowest_favored_class(self) -> int:
        """The lowest class this supplier currently favors (Figure 7)."""
        return self.vector.lowest_favored_class()
