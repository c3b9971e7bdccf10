"""Peer and bandwidth-class model of the paper (Section 2).

The paper stratifies peers into ``N`` classes by the out-bound bandwidth they
offer: a *class-i* peer offers ``R0 / 2**i`` where ``R0`` is the media
playback rate and ``1 <= i <= N``.  Lower class index means a *higher* class
(larger offer).  The power-of-two ladder is deliberate — it keeps the media
data assignment problem tractable (paper footnote 2) and it lets this
implementation do **exact integer arithmetic**: we express every bandwidth in
units of ``R0 / 2**N``, so

* the full playback rate ``R0`` is ``2**N`` units, and
* a class-``i`` peer offers ``2**(N - i)`` units.

All core algorithms work in these units; conversion to fractions of ``R0``
only happens at reporting boundaries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ClassLadderError, ConfigurationError

__all__ = ["ClassLadder", "PeerRole", "Peer", "SupplierOffer"]

#: Number of peer classes used throughout the paper's evaluation.
DEFAULT_NUM_CLASSES = 4


class PeerRole(enum.Enum):
    """Role a peer currently plays in the streaming system.

    The paper's model is strict about roles: a peer starts as a *requesting*
    peer, and once its streaming session completes it becomes (and remains) a
    *supplying* peer.  "Seed" peers are supplying peers from the start.
    """

    REQUESTING = "requesting"
    SUPPLYING = "supplying"


@dataclass(frozen=True)
class ClassLadder:
    """The bandwidth-class ladder of the paper's model.

    Parameters
    ----------
    num_classes:
        ``N``, the number of classes.  The paper's evaluation uses 4.

    Examples
    --------
    >>> ladder = ClassLadder(4)
    >>> ladder.offer_fraction(1)   # class-1 offers R0/2
    0.5
    >>> ladder.offer_units(4)      # class-4 offers 1 unit of R0/16
    1
    >>> ladder.full_rate_units     # R0 expressed in units
    16
    """

    num_classes: int = DEFAULT_NUM_CLASSES

    def __post_init__(self) -> None:
        if self.num_classes < 1:
            raise ConfigurationError(
                f"ClassLadder needs at least one class, got {self.num_classes}"
            )

    @property
    def full_rate_units(self) -> int:
        """``R0`` expressed in integer bandwidth units (``2**N``)."""
        return 1 << self.num_classes

    @property
    def classes(self) -> range:
        """Iterable of valid class indices, highest class first (1..N)."""
        return range(1, self.num_classes + 1)

    def validate_class(self, peer_class: int) -> int:
        """Return ``peer_class`` if valid, else raise :class:`ClassLadderError`."""
        if not isinstance(peer_class, int) or isinstance(peer_class, bool):
            raise ClassLadderError(f"peer class must be an int, got {peer_class!r}")
        if not 1 <= peer_class <= self.num_classes:
            raise ClassLadderError(
                f"peer class {peer_class} outside ladder 1..{self.num_classes}"
            )
        return peer_class

    def offer_units(self, peer_class: int) -> int:
        """Out-bound offer of a class-``i`` peer in integer units (``2**(N-i)``)."""
        self.validate_class(peer_class)
        return 1 << (self.num_classes - peer_class)

    def offer_fraction(self, peer_class: int) -> float:
        """Out-bound offer of a class-``i`` peer as a fraction of ``R0`` (``2**-i``)."""
        self.validate_class(peer_class)
        return self.offer_units(peer_class) / self.full_rate_units

    def class_for_units(self, units: int) -> int:
        """Inverse of :meth:`offer_units`; raises if ``units`` is not on the ladder."""
        for peer_class in self.classes:
            if self.offer_units(peer_class) == units:
                return peer_class
        raise ClassLadderError(f"{units} units is not a class offer on this ladder")

    def segment_slots(self, peer_class: int) -> int:
        """Time (in playback slots ``δt``) a class-``i`` peer needs per segment.

        A segment holds ``R0 * δt`` bits; at rate ``R0 / 2**i`` its
        transmission takes ``2**i * δt``, i.e. ``2**i`` slots.
        """
        self.validate_class(peer_class)
        return 1 << peer_class

    def is_lower_class(self, a: int, b: int) -> bool:
        """True when class ``a`` is *lower* (smaller offer) than class ``b``."""
        self.validate_class(a)
        self.validate_class(b)
        return a > b


@dataclass(frozen=True)
class Peer:
    """A peer identity: stable id plus its bandwidth class.

    The class is the bandwidth the peer *pledges*; the paper assumes an
    enforcement mechanism makes the pledge binding once the peer becomes a
    supplier (footnote 3), and so do we.
    """

    peer_id: int
    peer_class: int

    def offer_units(self, ladder: ClassLadder) -> int:
        """This peer's out-bound offer in integer units under ``ladder``."""
        return ladder.offer_units(self.peer_class)


@dataclass(frozen=True, slots=True)
class SupplierOffer:
    """A supplying peer's offer as seen by a requesting peer.

    This is the unit the assignment and admission algorithms consume: who the
    supplier is, what class it belongs to, and its offer in integer units.
    ``sort_key`` orders offers from the highest class (largest offer)
    downwards, breaking ties by peer id for determinism.
    """

    peer_id: int
    peer_class: int
    units: int

    @classmethod
    def for_peer(cls, peer: Peer, ladder: ClassLadder) -> "SupplierOffer":
        """Build the offer record for ``peer`` under ``ladder``."""
        return cls(
            peer_id=peer.peer_id,
            peer_class=peer.peer_class,
            units=ladder.offer_units(peer.peer_class),
        )

    @property
    def sort_key(self) -> tuple[int, int]:
        """Sort key: descending bandwidth first, then ascending peer id."""
        return (-self.units, self.peer_id)


def sort_offers_descending(offers: list[SupplierOffer]) -> list[SupplierOffer]:
    """Return ``offers`` sorted by descending bandwidth (paper's precondition).

    OTS_p2p requires its supplier list sorted by descending out-bound offer;
    ties are broken by peer id so that the assignment is deterministic.
    """
    return sorted(offers, key=lambda offer: offer.sort_key)
