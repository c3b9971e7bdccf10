"""Unified candidate-lookup interface over the directory and Chord substrates.

The simulator only ever needs one operation: *give me the ids of up to M
random candidate supplying peers for this media* (it keeps each peer's
class itself).  Both substrates provide it; the adapters below also charge
the transport for the control messages each substrate would generate, so
experiments can compare their signalling overhead
(``benchmarks/bench_ablation_lookup.py``).
"""

from __future__ import annotations

import random
from typing import Protocol

from repro.network.chord import ChordRing, SupplierIndex
from repro.network.directory import CentralDirectory
from repro.network.transport import DHT_HOP, LOOKUP, LOOKUP_REPLY, Transport

__all__ = ["LookupService", "DirectoryLookup", "ChordLookup"]


class LookupService(Protocol):
    """What the streaming system requires of a lookup substrate."""

    def register_supplier(self, media_id: str, peer_id: int) -> None:
        """Publish a new supplying peer."""
        ...

    def unregister_supplier(self, media_id: str, peer_id: int) -> None:
        """Withdraw a supplying peer (churn)."""
        ...

    def candidates(
        self, media_id: str, count: int, requester_id: int, rng: random.Random
    ) -> list[int]:
        """The ids of up to ``count`` random candidates."""
        ...


class DirectoryLookup:
    """Napster-style lookup: one round trip to a central directory."""

    def __init__(self, transport: Transport | None = None) -> None:
        self.directory = CentralDirectory()
        self.transport = transport

    def register_supplier(self, media_id: str, peer_id: int) -> None:
        """Register with the central directory (one control message)."""
        if self.transport is not None:
            self.transport.send("lookup")
        self.directory.register(media_id, peer_id)

    def unregister_supplier(self, media_id: str, peer_id: int) -> None:
        """Unregister from the central directory."""
        if self.transport is not None:
            self.transport.send("lookup")
        self.directory.unregister(media_id, peer_id)

    def candidates(
        self, media_id: str, count: int, requester_id: int, rng: random.Random
    ) -> list[int]:
        """One query round trip, then uniform sampling at the server."""
        if self.transport is not None:
            counts = self.transport.counts
            counts[LOOKUP] += 1
            counts[LOOKUP_REPLY] += 1
        return self.directory.sample_candidates(media_id, count, rng)


class ChordLookup:
    """Chord-based lookup: candidates harvested from the supplier index.

    ``node_peer_ids`` determines which peers host DHT nodes; by default the
    seeds (or whoever is passed) form the ring and every supplier merely
    *stores* its index entry, which matches deployments where only stable
    peers serve as DHT infrastructure.
    """

    def __init__(
        self, node_peer_ids: list[int], transport: Transport | None = None
    ) -> None:
        self.ring = ChordRing()
        for peer_id in node_peer_ids:
            self.ring.join(peer_id)
        self.transport = transport
        self._indexes: dict[str, SupplierIndex] = {}

    def _index(self, media_id: str) -> SupplierIndex:
        if media_id not in self._indexes:
            self._indexes[media_id] = SupplierIndex(self.ring, media_id)
        return self._indexes[media_id]

    def _charge_hops(self, hops_before: int) -> None:
        """One ``dht_hop`` message per routing hop, at least one per operation."""
        if self.transport is None:
            return
        hops = self.ring.lookup_hops - hops_before
        self.transport.counts[DHT_HOP] += max(hops, 1)

    def register_supplier(self, media_id: str, peer_id: int) -> None:
        """Publish the supplier's index entry into the DHT."""
        before = self.ring.lookup_hops
        self._index(media_id).register(peer_id)
        self._charge_hops(before)

    def unregister_supplier(self, media_id: str, peer_id: int) -> None:
        """Withdraw the supplier's index entry from the DHT."""
        before = self.ring.lookup_hops
        self._index(media_id).unregister(peer_id)
        self._charge_hops(before)

    def candidates(
        self, media_id: str, count: int, requester_id: int, rng: random.Random
    ) -> list[int]:
        """Sample candidates by routing to random ring positions."""
        before = self.ring.lookup_hops
        result = self._index(media_id).sample_candidates(count, rng)
        self._charge_hops(before)
        return result
