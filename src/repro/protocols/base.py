"""Admission-policy interface and registry.

The streaming system needs exactly three things from a policy:

1. a factory for per-supplier admission state (the probability vector plus
   its update rules),
2. whether rejected requesters should leave *reminders* (the paper's
   tighten signal), and
3. whether idle suppliers should run the ``T_out`` elevation timer.

Both paper protocols and all ablation variants fit this interface; new
variants register themselves in :data:`POLICY_REGISTRY` so configs can name
them by string.

The state machines are the readable reference, not the hot path:
:class:`~repro.simulation.arrayengine.ArrayEngine` reads each class's
initial lowest favored class off a fresh state and runs the same update
rules over two small integers per supplier.
``tests/simulation/test_admission_columns.py`` drives every registered
policy's state machine and the engine's columns through the same events,
so a new variant whose vectors the columns cannot represent fails there.
"""

from __future__ import annotations

import abc
from typing import Protocol, runtime_checkable

from repro.core.model import ClassLadder
from repro.errors import ConfigurationError

__all__ = ["SupplierStateLike", "AdmissionPolicy", "POLICY_REGISTRY", "make_policy"]


@runtime_checkable
class SupplierStateLike(Protocol):
    """Per-supplier admission state as the simulator consumes it."""

    busy: bool

    def on_session_start(self) -> None:
        """The supplier was enlisted into a session."""
        ...

    def on_request_while_busy(self, requester_class: int) -> None:
        """A request arrived while busy."""
        ...

    def on_reminder(self, requester_class: int) -> None:
        """A rejected requester left a reminder."""
        ...

    def on_session_end(self) -> None:
        """The served session finished; apply the end-of-session rule."""
        ...

    def on_idle_timeout(self) -> bool:
        """``T_out`` elapsed while idle; returns True if the vector changed."""
        ...

    def grant_probability(self, requester_class: int) -> float:
        """Current probability of granting a request of that class."""
        ...

    def favors(self, requester_class: int) -> bool:
        """Whether the class is currently favored (``Pa == 1.0``)."""
        ...

    def lowest_favored_class(self) -> int:
        """Figure 7's metric: the lowest class currently favored."""
        ...


class AdmissionPolicy(abc.ABC):
    """Factory + feature flags defining one admission-control protocol."""

    #: registry key and display name
    name: str = "abstract"
    #: do rejected requesters leave reminders with busy favoring suppliers?
    uses_reminders: bool = True
    #: do idle suppliers elevate after T_out?
    uses_idle_elevation: bool = True

    @abc.abstractmethod
    def make_supplier_state(
        self, own_class: int, ladder: ClassLadder
    ) -> SupplierStateLike:
        """Create the admission state for a new supplier of ``own_class``."""

    def describe(self) -> str:
        """Short human-readable description for reports."""
        flags = []
        if not self.uses_reminders:
            flags.append("no reminders")
        if not self.uses_idle_elevation:
            flags.append("no idle elevation")
        suffix = f" ({', '.join(flags)})" if flags else ""
        return f"{self.name}{suffix}"


#: name -> policy factory; populated by the concrete policy modules.
POLICY_REGISTRY: dict[str, type[AdmissionPolicy]] = {}


def register_policy(policy_class: type[AdmissionPolicy]) -> type[AdmissionPolicy]:
    """Class decorator adding a policy to :data:`POLICY_REGISTRY`."""
    POLICY_REGISTRY[policy_class.name] = policy_class
    return policy_class


def make_policy(name: str) -> AdmissionPolicy:
    """Instantiate a registered policy by name."""
    try:
        policy_class = POLICY_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(POLICY_REGISTRY))
        raise ConfigurationError(
            f"unknown admission policy {name!r}; known: {known}"
        ) from None
    return policy_class()
