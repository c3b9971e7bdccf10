#!/usr/bin/env python3
"""Chord DHT demo — the distributed candidate-lookup substrate.

The paper's footnote 4 allows requesting peers to discover candidate
suppliers "by using a distributed lookup service such as Chord".  This
example drives the Chord implementation directly:

* builds a ring, shows key ownership and finger-table routing,
* registers suppliers in the supplier index and samples candidates,
* measures routing hop counts against the O(log n) expectation,
* demonstrates churn: nodes leave, keys migrate, lookups keep working.

Run:  python examples/chord_lookup_demo.py
"""

import math
import random

from repro.network.chord import ChordRing, SupplierIndex, chord_id


def section(title: str) -> None:
    print()
    print("=" * 70)
    print(title)
    print("=" * 70)


def main() -> None:
    rng = random.Random(2002)

    section("1. Building a 64-node ring")
    ring = ChordRing(bits=24)
    for peer_id in range(64):
        ring.join(peer_id)
    nodes = ring.nodes
    print(f"ring of {len(ring)} nodes over a {ring.bits}-bit identifier circle")
    print("first five nodes (id -> successor):")
    for node in nodes[:5]:
        print(f"  {node.node_id:>8}  ->  {node.successor.node_id:>8}")

    section("2. Key ownership and routing")
    for name in ("movie.mkv", "trailer.mp4", "poster.png"):
        key = chord_id(name, ring.bits)
        owner = ring.find_successor(key)
        print(f"  key {name!r} hashes to {key:>8}; owned by node {owner.node_id}")
    probes = 400
    before = ring.lookup_hops, ring.lookups
    for _ in range(probes):
        ring.find_successor(rng.randrange(ring.modulus))
    hops = (ring.lookup_hops - before[0]) / probes
    print(f"\n  mean routing hops over {probes} random lookups: {hops:.2f} "
          f"(log2({len(ring)}) = {math.log2(len(ring)):.2f})")

    section("3. The supplier index")
    index = SupplierIndex(ring, media_id="movie.mkv")
    for peer_id in range(1000, 1200):
        index.register(peer_id)
    print(f"registered {index.num_suppliers} suppliers for 'movie.mkv'")
    candidates = index.sample_candidates(8, rng)
    print("a requesting peer samples M = 8 candidate ids:")
    for peer_id in candidates:
        # the index stores ids only; here a peer's class is its id mod 4
        peer_class = 1 + peer_id % 4
        print(f"  peer {peer_id} (class {peer_class}, offers R0/{2 ** peer_class})")

    section("4. Churn: a quarter of the ring leaves")
    stored_before = sum(
        len(entries) for node in ring.nodes for entries in node.storage.values()
    )
    for node in list(ring.nodes)[::4]:
        ring.leave(node)
    stored_after = sum(
        len(entries) for node in ring.nodes for entries in node.storage.values()
    )
    print(f"nodes: 64 -> {len(ring)}; stored entries conserved: "
          f"{stored_before} -> {stored_after}")
    survivors = index.sample_candidates(8, rng)
    print(f"candidate sampling still works: {survivors}")
    print(f"mean lookup hops now: {ring.mean_lookup_hops:.2f}")


if __name__ == "__main__":
    main()
