"""System-capacity accounting (Section 2, definition 4, and Figure 3).

The paper defines the capacity of the peer-to-peer streaming system at time
``t`` as the number of streaming sessions the supply side can sustain
simultaneously: the sum of all supplying peers' out-bound offers divided by
the playback rate ``R0``.  Figure 3's worked example takes the floor of that
sum, and so do we (a half-session cannot serve anyone); the exact fractional
value is kept alongside for plots and tests.

:class:`CapacityLedger` maintains the sum incrementally in exact integer
units as peers join the supplier population, which is how the simulator
produces the Figure 4 capacity-amplification curves without rescanning all
peers at every sample.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.core.model import ClassLadder
from repro.errors import CapacityError

__all__ = ["CapacityLedger", "max_capacity_sessions"]


@dataclass
class CapacityLedger:
    """Incremental capacity bookkeeping over the supplier population.

    Only *membership* in the supplier population matters — the paper's
    definition counts busy suppliers too (being busy is what "providing a
    session" means).  The ledger also tracks the per-class population, which
    the metrics layer uses for Figure 7.
    """

    ladder: ClassLadder
    total_units: int = field(default=0, init=False)
    per_class_count: dict[int, int] = field(init=False)

    def __post_init__(self) -> None:
        self.per_class_count = {j: 0 for j in self.ladder.classes}

    def add_supplier(self, peer_class: int) -> None:
        """A peer of ``peer_class`` joined the supplier population."""
        self.ladder.validate_class(peer_class)
        self.total_units += self.ladder.offer_units(peer_class)
        self.per_class_count[peer_class] += 1

    def remove_supplier(self, peer_class: int) -> None:
        """A supplier left (used by churn experiments; the paper has none)."""
        self.ladder.validate_class(peer_class)
        if self.per_class_count[peer_class] == 0:
            raise CapacityError(
                f"no class-{peer_class} supplier to remove from the ledger"
            )
        self.total_units -= self.ladder.offer_units(peer_class)
        self.per_class_count[peer_class] -= 1

    @property
    def sessions(self) -> int:
        """Capacity in whole sessions: ``⌊Σ offers / R0⌋`` (Figure 3's form)."""
        return self.total_units // self.ladder.full_rate_units

    @property
    def sessions_fractional(self) -> float:
        """Capacity as the exact fraction ``Σ offers / R0``."""
        return self.total_units / self.ladder.full_rate_units

    @property
    def num_suppliers(self) -> int:
        """Total number of peers currently in the supplier population."""
        return sum(self.per_class_count.values())


def max_capacity_sessions(
    class_counts: Mapping[int, int], ladder: ClassLadder
) -> int:
    """Ultimate capacity if *every* peer became a supplier (Figure 4's ceiling).

    The paper reports DAC_p2p reaching "at least 95% of the maximum capacity
    if all 50,100 peers become supplying peers"; this computes that maximum.
    """
    total = 0
    for peer_class, count in class_counts.items():
        ladder.validate_class(peer_class)
        if count < 0:
            raise CapacityError(f"negative count for class {peer_class}")
        total += count * ladder.offer_units(peer_class)
    return total // ladder.full_rate_units
