"""Ablation variants of DAC_p2p (the ``benchmarks/bench_ablation_*`` suite).

Each variant switches off or replaces exactly one mechanism of the paper's
protocol, so benchmark comparisons attribute performance to that mechanism:

* :class:`NoReminderDacPolicy` — rejected requesters leave no reminders;
  suppliers only ever *relax*, so differentiation cannot re-tighten after
  bursts (the paper's Figure 7 adaptivity disappears).
* :class:`NoElevationDacPolicy` — no idle-timeout elevation; the vector
  changes only at session ends, so an unlucky idle supplier can starve
  lower classes for a long time.
* :class:`LinearElevationDacPolicy` — elevation adds a fixed increment
  instead of doubling, giving a slower relax schedule.
* :class:`GenerousInitDacPolicy` — the initial vector is all-ones but
  reminders still tighten; differentiation only appears on demand.
"""

from __future__ import annotations

from repro.core.admission import AdmissionVector, SupplierAdmissionState
from repro.core.model import ClassLadder
from repro.protocols.base import AdmissionPolicy, register_policy

__all__ = [
    "NoReminderDacPolicy",
    "NoElevationDacPolicy",
    "LinearElevationDacPolicy",
    "GenerousInitDacPolicy",
]


@register_policy
class NoReminderDacPolicy(AdmissionPolicy):
    """DAC_p2p with the reminder technique disabled (Ablation A)."""

    name = "dac-no-reminder"
    uses_reminders = False
    uses_idle_elevation = True

    def make_supplier_state(
        self, own_class: int, ladder: ClassLadder
    ) -> SupplierAdmissionState:
        """Standard DAC state; reminders simply never reach it."""
        return SupplierAdmissionState(own_class=own_class, ladder=ladder)


@register_policy
class NoElevationDacPolicy(AdmissionPolicy):
    """DAC_p2p without the idle ``T_out`` elevation timer (Ablation B)."""

    name = "dac-no-elevation"
    uses_reminders = True
    uses_idle_elevation = False

    def make_supplier_state(
        self, own_class: int, ladder: ClassLadder
    ) -> SupplierAdmissionState:
        """Standard DAC state; the simulator never arms its idle timer."""
        return SupplierAdmissionState(own_class=own_class, ladder=ladder)


class _LinearElevationState(SupplierAdmissionState):
    """DAC state whose elevation adds ``step`` instead of doubling."""

    ELEVATION_STEP = 0.125

    def _elevate_linear(self) -> bool:
        changed = False
        probabilities = self.vector.probabilities
        for index, value in enumerate(probabilities):
            if value < 1.0:
                probabilities[index] = min(1.0, value + self.ELEVATION_STEP)
                changed = True
        return changed

    def on_idle_timeout(self) -> bool:
        """Linear-step elevation after ``T_out`` of idleness."""
        if self.busy:
            return False
        return self._elevate_linear()

    def on_session_end(self) -> None:
        """Same rule structure as DAC, with the linear relax step."""
        self.busy = False
        if self.reminder_classes:
            self.vector.tighten(min(self.reminder_classes))
        elif not self.favored_request_while_busy:
            self._elevate_linear()
        self.favored_request_while_busy = False
        self.reminder_classes = []


@register_policy
class LinearElevationDacPolicy(AdmissionPolicy):
    """DAC_p2p with additive instead of multiplicative relaxation."""

    name = "dac-linear-elevation"
    uses_reminders = True
    uses_idle_elevation = True

    def make_supplier_state(
        self, own_class: int, ladder: ClassLadder
    ) -> _LinearElevationState:
        """Linear-elevation variant of the DAC supplier state."""
        return _LinearElevationState(own_class=own_class, ladder=ladder)


class _GenerousInitState(SupplierAdmissionState):
    """DAC state that starts with an all-ones vector."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.vector = AdmissionVector.all_ones(self.ladder)


@register_policy
class GenerousInitDacPolicy(AdmissionPolicy):
    """DAC_p2p whose differentiation only appears via reminders."""

    name = "dac-generous-init"
    uses_reminders = True
    uses_idle_elevation = True

    def make_supplier_state(
        self, own_class: int, ladder: ClassLadder
    ) -> _GenerousInitState:
        """All-ones start; tighten-on-reminder still active."""
        return _GenerousInitState(own_class=own_class, ladder=ladder)
