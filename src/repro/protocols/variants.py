"""State machines of the ablation variants of DAC_p2p.

The ``benchmarks/bench_ablation_*`` suite compares DAC_p2p against four
variants that each switch off or replace exactly one mechanism, so the
comparisons attribute performance to that mechanism.  Two of them are
only a flag on a :data:`~repro.protocols.base.POLICY_REGISTRY` row
(``dac-no-reminder``, ``dac-no-elevation``); the other two run their own
supplier state, defined here:

* :class:`LinearElevationState` (``dac-linear-elevation``) — elevation
  adds a fixed increment instead of doubling, giving a slower relax
  schedule.
* :class:`GenerousInitState` (``dac-generous-init``) — the initial vector
  is all-ones but reminders still tighten; differentiation only appears
  on demand.
"""

from __future__ import annotations

from repro.core.admission import AdmissionVector, SupplierAdmissionState

__all__ = ["LinearElevationState", "GenerousInitState"]


class LinearElevationState(SupplierAdmissionState):
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


class GenerousInitState(SupplierAdmissionState):
    """DAC state that starts with an all-ones vector."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.vector = AdmissionVector.all_ones(self.ladder)
