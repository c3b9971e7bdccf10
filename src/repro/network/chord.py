"""A from-scratch Chord DHT (Stoica et al., SIGCOMM 2001) substrate.

The paper's footnote 4 offers Chord as the distributed way for a requesting
peer to discover candidate supplying peers.  This module implements the
essential Chord machinery —

* an ``m``-bit consistent-hash identifier circle,
* per-node finger tables (``finger[i]`` = successor of ``node + 2**i``),
* eagerly-correct successor/predecessor pointers with joins and leaves,
* iterative ``find_successor`` routing via closest-preceding-finger with
  hop counting, falling back to successor walks when fingers are stale,
* key storage with transfer on join/leave —

plus :class:`SupplierIndex`, the thin layer that maps the streaming
system's "give me M random candidate suppliers" need onto DHT operations.

Determinism: identifiers come from SHA-1 (as in the Chord paper), so ring
positions are reproducible across runs; randomized sampling takes an
explicit ``random.Random``.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from dataclasses import dataclass, field

from repro.errors import LookupError_

__all__ = ["ChordNode", "ChordRing", "SupplierIndex", "chord_id"]

DEFAULT_ID_BITS = 32


def chord_id(name: str, bits: int = DEFAULT_ID_BITS) -> int:
    """Hash ``name`` onto the ``bits``-bit Chord identifier circle (SHA-1)."""
    digest = hashlib.sha1(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (1 << bits)


def _in_half_open(value: int, left: int, right: int, modulus: int) -> bool:
    """True when ``value`` lies in the circular interval ``(left, right]``."""
    value %= modulus
    left %= modulus
    right %= modulus
    if left < right:
        return left < value <= right
    if left > right:
        return value > left or value <= right
    return True  # full circle: a single node owns everything


@dataclass
class ChordNode:
    """One Chord node: identifier, routing state, and its key shard."""

    node_id: int
    peer_id: int
    successor: "ChordNode | None" = None
    predecessor: "ChordNode | None" = None
    fingers: list["ChordNode"] = field(default_factory=list)
    fingers_stale: bool = True
    storage: dict[int, list[tuple[str, object]]] = field(default_factory=dict)

    def store(self, key: int, name: str, value: object) -> None:
        """Store ``(name, value)`` under ``key`` on this node."""
        self.storage.setdefault(key, []).append((name, value))

    def remove(self, key: int, name: str) -> bool:
        """Remove the entry called ``name`` under ``key``; returns success."""
        entries = self.storage.get(key)
        if not entries:
            return False
        kept = [entry for entry in entries if entry[0] != name]
        if len(kept) == len(entries):
            return False
        if kept:
            self.storage[key] = kept
        else:
            del self.storage[key]
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChordNode(id={self.node_id}, peer={self.peer_id})"


class ChordRing:
    """The Chord identifier circle with joins, leaves, routing and storage.

    Successor/predecessor pointers are maintained eagerly (always correct);
    finger tables are rebuilt lazily per node (``fix_fingers``) and marked
    stale ring-wide by membership changes, mirroring how real Chord's
    periodic stabilization eventually repairs fingers while successors keep
    lookups correct in the meantime.
    """

    def __init__(self, bits: int = DEFAULT_ID_BITS) -> None:
        self.bits = bits
        self.modulus = 1 << bits
        self._ids: list[int] = []            # sorted node ids
        self._nodes: dict[int, ChordNode] = {}
        self.lookup_hops: int = 0            # cumulative hop counter
        self.lookups: int = 0

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ids)

    @property
    def nodes(self) -> list[ChordNode]:
        """All nodes, in ring order."""
        return [self._nodes[node_id] for node_id in self._ids]

    def join(self, peer_id: int, name: str | None = None) -> ChordNode:
        """Add a node for ``peer_id``; keys it now owns are transferred to it."""
        node_name = name if name is not None else f"peer-{peer_id}"
        node_id = chord_id(node_name, self.bits)
        while node_id in self._nodes:  # resolve the (rare) id collision
            node_name += "'"
            node_id = chord_id(node_name, self.bits)
        node = ChordNode(node_id=node_id, peer_id=peer_id)
        bisect.insort(self._ids, node_id)
        self._nodes[node_id] = node
        self._relink(node)
        self._transfer_keys_to(node)
        self._mark_fingers_stale()
        return node

    def leave(self, node: ChordNode) -> None:
        """Remove ``node``; its keys move to its successor."""
        if node.node_id not in self._nodes:
            raise LookupError_(f"node {node.node_id} is not on the ring")
        index = bisect.bisect_left(self._ids, node.node_id)
        self._ids.pop(index)
        del self._nodes[node.node_id]
        if self._ids:
            successor = self._successor_of(node.node_id)
            for key, entries in node.storage.items():
                for entry_name, value in entries:
                    successor.store(key, entry_name, value)
            self._relink(successor)
            if node.predecessor is not None and node.predecessor is not node:
                self._relink(node.predecessor)
        node.storage.clear()
        self._mark_fingers_stale()

    def _relink(self, node: ChordNode) -> None:
        """Repair successor/predecessor pointers around ``node``."""
        index = bisect.bisect_left(self._ids, node.node_id)
        succ_id = self._ids[(index + 1) % len(self._ids)]
        pred_id = self._ids[(index - 1) % len(self._ids)]
        node.successor = self._nodes[succ_id]
        node.predecessor = self._nodes[pred_id]
        self._nodes[pred_id].successor = node
        self._nodes[succ_id].predecessor = node

    def _successor_of(self, ident: int) -> ChordNode:
        """The live node owning identifier ``ident`` (successor on the circle)."""
        if not self._ids:
            raise LookupError_("the Chord ring is empty")
        index = bisect.bisect_left(self._ids, ident % self.modulus)
        return self._nodes[self._ids[index % len(self._ids)]]

    def _transfer_keys_to(self, node: ChordNode) -> None:
        """Move keys in ``(predecessor, node]`` from the old owner to ``node``."""
        successor = node.successor
        if successor is None or successor is node:
            return
        pred_id = node.predecessor.node_id if node.predecessor else node.node_id
        moving = [
            key
            for key in successor.storage
            if _in_half_open(key, pred_id, node.node_id, self.modulus)
        ]
        for key in moving:
            node.storage[key] = successor.storage.pop(key)

    def _mark_fingers_stale(self) -> None:
        for node in self._nodes.values():
            node.fingers_stale = True

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def fix_fingers(self, node: ChordNode) -> None:
        """Rebuild ``node``'s finger table (Chord's periodic stabilizer)."""
        node.fingers = [
            self._successor_of((node.node_id + (1 << i)) % self.modulus)
            for i in range(self.bits)
        ]
        node.fingers_stale = False

    def _closest_preceding(self, node: ChordNode, key: int) -> ChordNode:
        """Closest finger of ``node`` strictly between ``node`` and ``key``."""
        for finger in reversed(node.fingers):
            if finger.node_id not in self._nodes:
                continue  # stale finger to a departed node
            if _in_half_open(
                finger.node_id, node.node_id, (key - 1) % self.modulus, self.modulus
            ) and finger.node_id != key:
                return finger
        return node

    def find_successor(self, key: int, start: ChordNode | None = None) -> ChordNode:
        """Iteratively route to the node owning ``key``, counting hops.

        Uses finger tables (rebuilding a node's table on first use after a
        membership change) and successor pointers; because successors are
        eagerly correct, the walk always terminates at the right owner.
        """
        if not self._ids:
            raise LookupError_("the Chord ring is empty")
        node = start if start is not None else self._nodes[self._ids[0]]
        self.lookups += 1
        key %= self.modulus
        hops = 0
        limit = 4 * self.bits + len(self._ids)
        while not _in_half_open(key, node.node_id, node.successor.node_id, self.modulus):
            if node.fingers_stale:
                self.fix_fingers(node)
            nxt = self._closest_preceding(node, key)
            if nxt is node:
                nxt = node.successor
            node = nxt
            hops += 1
            if hops > limit:
                raise LookupError_(
                    f"routing for key {key} exceeded {limit} hops; ring corrupt"
                )
        self.lookup_hops += hops
        return node.successor

    @property
    def mean_lookup_hops(self) -> float:
        """Average hops per ``find_successor`` since ring creation."""
        return self.lookup_hops / self.lookups if self.lookups else 0.0

    # ------------------------------------------------------------------
    # storage API
    # ------------------------------------------------------------------
    def put(self, name: str, value: object, start: ChordNode | None = None) -> int:
        """Store ``value`` under the id of ``name``; returns the key."""
        key = chord_id(name, self.bits)
        owner = self.find_successor(key, start)
        owner.store(key, name, value)
        return key

    def get(self, name: str, start: ChordNode | None = None) -> list[object]:
        """Fetch all values stored under ``name`` (empty list if none)."""
        key = chord_id(name, self.bits)
        owner = self.find_successor(key, start)
        return [value for entry_name, value in owner.storage.get(key, []) if entry_name == name]

    def delete(self, name: str, start: ChordNode | None = None) -> bool:
        """Delete the entry stored under ``name``; returns success."""
        key = chord_id(name, self.bits)
        owner = self.find_successor(key, start)
        return owner.remove(key, name)


class SupplierIndex:
    """Candidate-supplier discovery on top of a :class:`ChordRing`.

    Each supplying peer registers one index entry, its peer id, under the
    DHT name ``"{media_id}/{peer_id}"``; entries scatter uniformly around
    the circle because the name is hashed.  To sample candidates, the
    requester draws a random circle position, routes to it, and harvests
    entries walking successors — repeating from fresh random positions
    until it has ``M`` distinct candidate ids (the simulator keeps each
    peer's class itself).  Harvesting a small window per draw keeps the
    size-bias of "first entry after a random point" negligible; the test
    suite checks the sample is statistically close to uniform.
    """

    #: entries harvested per random draw before redrawing
    WINDOW = 4

    def __init__(self, ring: ChordRing, media_id: str) -> None:
        self.ring = ring
        self.media_id = media_id
        # registered peer ids, in registration order (values unused)
        self._registered: dict[int, None] = {}

    def _entry_name(self, peer_id: int) -> str:
        return f"{self.media_id}/{peer_id}"

    def register(self, peer_id: int) -> None:
        """Publish ``peer_id`` as a supplier of the index's media."""
        if peer_id in self._registered:
            return
        self.ring.put(self._entry_name(peer_id), peer_id)
        self._registered[peer_id] = None

    def unregister(self, peer_id: int) -> None:
        """Withdraw a supplier entry (churn support)."""
        if peer_id not in self._registered:
            raise LookupError_(f"peer {peer_id} not registered in supplier index")
        self.ring.delete(self._entry_name(peer_id))
        del self._registered[peer_id]

    @property
    def num_suppliers(self) -> int:
        """Number of currently registered suppliers."""
        return len(self._registered)

    def _harvest(self, start_key: int, want: int) -> list[int]:
        """Collect up to ``want`` peer ids walking the ring from ``start_key``."""
        found: list[int] = []
        prefix = f"{self.media_id}/"
        node = self.ring.find_successor(start_key)
        visited = 0
        while len(found) < want and visited < len(self.ring):
            for entries in node.storage.values():
                for entry_name, value in entries:
                    if entry_name.startswith(prefix):
                        found.append(value)  # the peer id
            node = node.successor
            visited += 1
        return found

    def sample_candidates(
        self, count: int, rng: random.Random
    ) -> list[int]:
        """Sample up to ``count`` distinct candidate peer ids."""
        if not self._registered:
            return []
        if count >= len(self._registered):
            candidates = list(self._registered)
            rng.shuffle(candidates)
            return candidates

        # insertion-ordered, so the ids come back in the order first drawn
        chosen: dict[int, None] = {}
        attempts = 0
        while len(chosen) < count and attempts < 50 * count:
            attempts += 1
            start_key = rng.randrange(self.ring.modulus)
            window = self._harvest(start_key, self.WINDOW)
            if not window:
                continue
            chosen.setdefault(window[rng.randrange(len(window))])
        return list(chosen)
