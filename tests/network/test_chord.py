"""Unit tests for the Chord DHT substrate."""

import random
from collections import Counter

import pytest

from repro.errors import LookupError_
from repro.network.chord import ChordRing, SupplierIndex, chord_id


@pytest.fixture
def ring():
    ring = ChordRing(bits=24)
    for peer_id in range(40):
        ring.join(peer_id)
    return ring


class TestIdentifiers:
    def test_chord_id_is_deterministic(self):
        assert chord_id("peer-1", 24) == chord_id("peer-1", 24)

    def test_chord_id_within_space(self):
        for name in ("a", "b", "video/17"):
            assert 0 <= chord_id(name, 16) < (1 << 16)


class TestRingStructure:
    def test_successor_predecessor_cycle(self, ring):
        nodes = ring.nodes
        for left, right in zip(nodes, nodes[1:] + nodes[:1]):
            assert left.successor is right
            assert right.predecessor is left

    def test_single_node_points_to_itself(self):
        ring = ChordRing(bits=16)
        node = ring.join(1)
        assert node.successor is node
        assert node.predecessor is node

    def test_join_keeps_ids_sorted(self, ring):
        ids = [node.node_id for node in ring.nodes]
        assert ids == sorted(ids)

    def test_leave_relinks_neighbors(self, ring):
        victim = ring.nodes[5]
        before_pred, before_succ = victim.predecessor, victim.successor
        ring.leave(victim)
        assert before_pred.successor is before_succ
        assert before_succ.predecessor is before_pred

    def test_leave_unknown_node_raises(self, ring):
        stranger = ring.nodes[0].__class__(node_id=999_999_999, peer_id=-1)
        with pytest.raises(LookupError_):
            ring.leave(stranger)


class TestRoutingAndStorage:
    def test_put_get_roundtrip(self, ring):
        ring.put("hello", 42)
        assert ring.get("hello") == [42]

    def test_get_missing_returns_empty(self, ring):
        assert ring.get("nothing-here") == []

    def test_delete_removes_entry(self, ring):
        ring.put("k", 1)
        assert ring.delete("k") is True
        assert ring.get("k") == []
        assert ring.delete("k") is False

    def test_find_successor_agrees_from_any_start(self, ring):
        key = chord_id("some-key", ring.bits)
        owners = {ring.find_successor(key, start=node).node_id for node in ring.nodes}
        assert len(owners) == 1

    def test_keys_stored_at_their_successor(self, ring):
        for name in ("a", "b", "c", "d"):
            ring.put(name, name)
            key = chord_id(name, ring.bits)
            owner = ring.find_successor(key)
            assert any(
                entry_name == name
                for entries in owner.storage.values()
                for entry_name, _v in entries
            )

    def test_lookup_hops_logarithmic(self, ring):
        rng = random.Random(3)
        for _ in range(200):
            ring.find_successor(rng.randrange(ring.modulus))
        # 40 nodes -> log2(40) ~ 5.3; allow a factor of 2 of slack.
        assert ring.mean_lookup_hops < 11

    def test_keys_move_on_join(self):
        ring = ChordRing(bits=20)
        ring.join(0)
        for i in range(30):
            ring.put(f"key-{i}", i)
        for peer_id in range(1, 10):
            ring.join(peer_id)
        # Every key is still retrievable and owned by its successor.
        for i in range(30):
            assert ring.get(f"key-{i}") == [i]

    def test_keys_move_on_leave(self, ring):
        for i in range(30):
            ring.put(f"key-{i}", i)
        for victim in list(ring.nodes)[::4]:
            ring.leave(victim)
        for i in range(30):
            assert ring.get(f"key-{i}") == [i]

    def test_empty_ring_rejects_lookup(self):
        with pytest.raises(LookupError_):
            ChordRing().find_successor(5)


class TestSupplierIndex:
    @pytest.fixture
    def index(self, ring):
        index = SupplierIndex(ring, "video")
        for peer_id in range(100, 160):
            index.register(peer_id)
        return index

    def test_register_and_count(self, index):
        assert index.num_suppliers == 60

    def test_unregister(self, index):
        index.unregister(100)
        assert index.num_suppliers == 59
        with pytest.raises(LookupError_):
            index.unregister(100)

    def test_sample_returns_distinct_known_suppliers(self, index):
        rng = random.Random(11)
        sample = index.sample_candidates(8, rng)
        assert len(sample) == 8
        assert len(set(sample)) == 8
        assert all(100 <= pid < 160 for pid in sample)

    def test_sample_more_than_population_returns_all(self, index):
        sample = index.sample_candidates(500, random.Random(2))
        assert len(sample) == 60

    def test_sample_of_empty_index(self, ring):
        index = SupplierIndex(ring, "empty")
        assert index.sample_candidates(4, random.Random(1)) == []

    def test_sampling_covers_population_broadly(self, index):
        rng = random.Random(1)
        counts = Counter()
        for _ in range(600):
            for pid in index.sample_candidates(8, rng):
                counts[pid] += 1
        # All 60 suppliers should be reachable by sampling.
        assert len(counts) == 60
        # No supplier should dominate: max count within 6x of the mean.
        mean = sum(counts.values()) / 60
        assert max(counts.values()) < 6 * mean
