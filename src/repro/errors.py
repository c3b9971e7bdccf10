"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by this library derives from
:class:`P2PStreamError`, so applications can catch library failures with a
single ``except`` clause while still letting programming errors (e.g.
``TypeError``) propagate.
"""

from __future__ import annotations

__all__ = [
    "P2PStreamError",
    "ConfigurationError",
    "ClassLadderError",
    "AssignmentError",
    "InfeasibleSessionError",
    "CapacityError",
    "SchedulingError",
    "LookupError_",
    "SimulationError",
    "BatchWorkerError",
    "ClaimError",
    "StoreMergeError",
    "TraceError",
]


class P2PStreamError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(P2PStreamError):
    """A configuration value is missing, out of range, or inconsistent."""


class ClassLadderError(ConfigurationError):
    """A peer class index is outside the configured bandwidth ladder."""


class AssignmentError(P2PStreamError):
    """A media-data assignment request is malformed or cannot be computed."""


class InfeasibleSessionError(AssignmentError):
    """The supplier set cannot sustain a streaming session.

    Raised when the aggregated out-bound bandwidth of the proposed supplying
    peers does not equal the media playback rate ``R0``, which the paper's
    model requires for a session to be feasible.
    """


class CapacityError(P2PStreamError):
    """Capacity bookkeeping was asked to do something inconsistent."""


class SchedulingError(P2PStreamError):
    """A transmission schedule is internally inconsistent."""


class LookupError_(P2PStreamError):
    """A peer-to-peer lookup operation failed.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`LookupError`.
    """


class SimulationError(P2PStreamError):
    """The discrete-event simulation reached an invalid state."""


class BatchWorkerError(SimulationError):
    """A batch worker failed on one specific config.

    Raised by :func:`~repro.orchestration.batch.run_batch` in place of a
    bare ``BrokenProcessPool`` (or a naked worker exception): it names
    the failing config's index and label so a dead grid point is
    identifiable without bisecting the batch.
    """

    def __init__(self, index: int, label: str, reason: str) -> None:
        super().__init__(
            f"batch worker failed on config {index} ({label}): {reason}"
        )
        self.index = index
        self.label = label
        self.reason = reason


class ClaimError(P2PStreamError):
    """A spec-claim operation was invalid (bad lease, foreign claim, ...)."""


class StoreMergeError(P2PStreamError):
    """Two result stores disagree on a record they both hold.

    Same spec hash but differing payload fingerprints means a
    determinism violation somewhere, or records written by two
    releases; merging refuses to pick a side.
    """


class TraceError(P2PStreamError):
    """An event trace could not be written or parsed."""
