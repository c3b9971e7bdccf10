"""The admission-policy table.

The streaming system needs exactly three things from a policy: the state
machine each supplier runs (the probability vector plus its update
rules), whether rejected requesters leave *reminders* (the paper's
tighten signal), and whether idle suppliers run the ``T_out`` elevation
timer.  So a policy is one frozen :class:`AdmissionPolicy` row of those
three facts, and :data:`POLICY_REGISTRY` is the table of every row a
config can name.

The state machines are the readable reference, not the hot path:
:class:`~repro.simulation.arrayengine.ArrayEngine` reads each class's
initial lowest favored class off a fresh state and runs the same update
rules over two small integers per supplier.
``tests/simulation/test_admission_columns.py`` drives every registered
policy's state machine and the engine's columns through the same events,
so a new row whose vectors the columns cannot represent fails there.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.admission import SupplierAdmissionState
from repro.core.model import ClassLadder
from repro.errors import ConfigurationError
from repro.protocols.ndac import NdacSupplierState
from repro.protocols.variants import GenerousInitState, LinearElevationState

__all__ = ["AdmissionPolicy", "POLICY_REGISTRY", "make_policy"]


@dataclass(frozen=True)
class AdmissionPolicy:
    """One admission-control protocol: a state machine and two flags."""

    #: registry key and display name
    name: str
    #: the per-supplier state machine, built as ``state(own_class=, ladder=)``
    state: type = SupplierAdmissionState
    #: do rejected requesters leave reminders with busy favoring suppliers?
    uses_reminders: bool = True
    #: do idle suppliers elevate after T_out?
    uses_idle_elevation: bool = True

    def make_supplier_state(self, own_class: int, ladder: ClassLadder):
        """Create the admission state for a new supplier of ``own_class``."""
        return self.state(own_class=own_class, ladder=ladder)


#: name -> policy: the paper's two protocols and four ablation variants,
#: each switching off or replacing exactly one mechanism of DAC_p2p
POLICY_REGISTRY: dict[str, AdmissionPolicy] = {
    policy.name: policy
    for policy in (
        # Protocol DAC_p2p (Section 4)
        AdmissionPolicy("dac"),
        # the non-differentiated baseline: all-ones vector, inert dynamics
        AdmissionPolicy(
            "ndac", NdacSupplierState, uses_reminders=False, uses_idle_elevation=False
        ),
        # no reminders: suppliers only relax, bursts cannot re-tighten them
        AdmissionPolicy("dac-no-reminder", uses_reminders=False),
        # no T_out timer: the vector changes only at session ends
        AdmissionPolicy("dac-no-elevation", uses_idle_elevation=False),
        # elevation adds a fixed step instead of doubling
        AdmissionPolicy("dac-linear-elevation", LinearElevationState),
        # all-ones start: differentiation appears only through reminders
        AdmissionPolicy("dac-generous-init", GenerousInitState),
    )
}


def make_policy(name: str) -> AdmissionPolicy:
    """The registered policy of that name."""
    try:
        return POLICY_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(POLICY_REGISTRY))
        raise ConfigurationError(
            f"unknown admission policy {name!r}; known: {known}"
        ) from None
