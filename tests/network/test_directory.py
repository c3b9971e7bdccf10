"""Unit tests for the Napster-style central directory."""

import random
from collections import Counter

import pytest

from repro.errors import LookupError_
from repro.network.directory import CentralDirectory


@pytest.fixture
def directory():
    d = CentralDirectory()
    for peer_id in range(10):
        d.register("video", peer_id)
    return d


class TestRegistration:
    def test_register_and_count(self, directory):
        assert directory.num_suppliers("video") == 10
        assert directory.num_suppliers("other") == 0

    def test_reregistration_is_idempotent(self, directory):
        directory.register("video", 3)
        assert directory.num_suppliers("video") == 10

    def test_unregister_removes(self, directory):
        directory.unregister("video", 4)
        assert directory.num_suppliers("video") == 9
        ids = set(directory.sample_candidates("video", 20, random.Random(1)))
        assert 4 not in ids

    def test_unregister_unknown_raises(self, directory):
        with pytest.raises(LookupError_):
            directory.unregister("video", 999)


class TestSampling:
    def test_sample_size_and_distinctness(self, directory):
        rng = random.Random(7)
        sample = directory.sample_candidates("video", 4, rng)
        assert len(sample) == 4
        assert len(set(sample)) == 4

    def test_small_population_returns_everyone(self, directory):
        rng = random.Random(7)
        sample = directory.sample_candidates("video", 50, rng)
        assert len(sample) == 10

    def test_empty_media_returns_nothing(self):
        assert CentralDirectory().sample_candidates("x", 5, random.Random(1)) == []

    def test_sampling_is_roughly_uniform(self):
        directory = CentralDirectory()
        for peer_id in range(20):
            directory.register("v", peer_id)
        rng = random.Random(42)
        counts = Counter()
        for _ in range(4000):
            for peer_id in directory.sample_candidates("v", 4, rng):
                counts[peer_id] += 1
        # Each peer expected 4000*4/20 = 800 draws; allow generous slack.
        assert all(600 < counts[pid] < 1000 for pid in range(20))

    def test_unregister_keeps_sampling_uniform(self):
        # Swap-removal must not bias the remaining population.
        directory = CentralDirectory()
        for peer_id in range(12):
            directory.register("v", peer_id)
        for peer_id in range(0, 12, 3):
            directory.unregister("v", peer_id)
        rng = random.Random(5)
        counts = Counter()
        for _ in range(2000):
            for peer_id in directory.sample_candidates("v", 2, rng):
                counts[peer_id] += 1
        remaining = [p for p in range(12) if p % 3 != 0]
        assert set(counts) == set(remaining)
        expected = 2000 * 2 / len(remaining)
        assert all(0.6 * expected < counts[p] < 1.4 * expected for p in remaining)
