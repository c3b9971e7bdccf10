"""Unit tests for the unified lookup adapters."""

import random

import pytest

from repro.network.lookup import ChordLookup, DirectoryLookup
from repro.network.transport import Transport


@pytest.fixture(params=["directory", "chord"])
def lookup(request):
    if request.param == "directory":
        return DirectoryLookup(transport=Transport())
    return ChordLookup(node_peer_ids=list(range(20)), transport=Transport())


class TestLookupAdapters:
    def test_register_then_sample(self, lookup):
        for peer_id in range(100, 130):
            lookup.register_supplier("video", peer_id, 1 + peer_id % 4)
        rng = random.Random(5)
        candidates = lookup.candidates("video", 8, requester_id=999, rng=rng)
        assert len(candidates) == 8
        assert all(100 <= pid < 130 for pid, _cls in candidates)
        assert all(cls == 1 + pid % 4 for pid, cls in candidates)

    def test_unregister_shrinks_population(self, lookup):
        for peer_id in range(100, 104):
            lookup.register_supplier("video", peer_id, 1)
        lookup.unregister_supplier("video", 100)
        rng = random.Random(5)
        candidates = lookup.candidates("video", 10, requester_id=999, rng=rng)
        assert {pid for pid, _cls in candidates} == {101, 102, 103}

    def test_transport_charged_for_operations(self, lookup):
        lookup.register_supplier("video", 100, 1)
        lookup.candidates("video", 4, requester_id=999, rng=random.Random(1))
        assert lookup.transport.snapshot()["messages"] > 0

    def test_empty_media_yields_no_candidates(self, lookup):
        assert lookup.candidates("ghost", 4, 1, random.Random(1)) == []


class TestDirectorySpecifics:
    def test_directory_charges_one_round_trip_per_query(self):
        lookup = DirectoryLookup(transport=Transport())
        lookup.register_supplier("v", 1, 1)
        before = lookup.transport.snapshot()
        lookup.candidates("v", 4, requester_id=9, rng=random.Random(1))
        after = lookup.transport.snapshot()
        assert after["messages"] - before["messages"] == 2  # query + reply
        assert after["count_lookup_reply"] == 1


class TestChordSpecifics:
    def test_chord_charges_hops(self):
        lookup = ChordLookup(node_peer_ids=list(range(30)), transport=Transport())
        for peer_id in range(100, 140):
            lookup.register_supplier("v", peer_id, 1)
        before = lookup.transport.snapshot()["count_dht_hop"]
        hops_before = lookup.ring.lookup_hops
        lookup.candidates("v", 8, requester_id=9, rng=random.Random(1))
        hops = lookup.ring.lookup_hops - hops_before
        after = lookup.transport.snapshot()["count_dht_hop"]
        assert after - before == max(hops, 1)  # one message per routing hop
