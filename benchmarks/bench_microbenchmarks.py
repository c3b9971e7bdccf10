"""Micro-benchmarks of the performance-critical substrates.

These are classical pytest-benchmark timings (many rounds, statistics)
rather than one-shot experiment reproductions: the directory's
O(1)-update/uniform-sample registry, Chord routing, OTS_p2p, and the
end-to-end simulator throughput in protocol events per second.
They guard against performance regressions that would make the full-scale
(``REPRO_SCALE=1.0``) harness impractical.
"""

from __future__ import annotations

import random

from repro.core.assignment import ots_assignment
from repro.core.model import ClassLadder, SupplierOffer
from repro.network.chord import ChordRing
from repro.network.directory import CentralDirectory
from repro.scenarios import get_scenario
from repro.simulation.arrayengine import ArrayEngine


def test_directory_sampling(benchmark):
    """Sample M=8 candidates from a 50,000-supplier directory."""
    directory = CentralDirectory()
    for peer_id in range(50_000):
        directory.register("video", peer_id)
    rng = random.Random(5)

    result = benchmark(directory.sample_candidates, "video", 8, rng)
    assert len(result) == 8


def test_directory_register_unregister(benchmark):
    """Churn a directory entry (swap-removal path)."""
    directory = CentralDirectory()
    for peer_id in range(10_000):
        directory.register("video", peer_id)

    def churn():
        directory.unregister("video", 5_000)
        directory.register("video", 5_000)

    benchmark(churn)
    assert directory.num_suppliers("video") == 10_000


def test_chord_lookup(benchmark):
    """One find_successor on a 500-node ring (warm finger tables)."""
    ring = ChordRing(bits=24)
    for peer_id in range(500):
        ring.join(peer_id)
    rng = random.Random(9)
    for node in ring.nodes:  # warm every finger table
        ring.fix_fingers(node)
    keys = [rng.randrange(ring.modulus) for _ in range(256)]
    index = iter(range(10**9))

    def lookup():
        return ring.find_successor(keys[next(index) % 256])

    node = benchmark(lookup)
    assert node is not None


def test_ots_assignment_paper_ladder(benchmark):
    """OTS_p2p on a typical 6-supplier session."""
    ladder = ClassLadder(4)
    classes = [1, 3, 3, 3, 4, 4]
    offers = [
        SupplierOffer(i + 1, c, ladder.offer_units(c))
        for i, c in enumerate(classes)
    ]
    assignment = benchmark(ots_assignment, offers, ladder)
    assert assignment.num_suppliers == 6


def test_simulator_end_to_end_throughput(benchmark):
    """Protocol events per second on a 1,002-peer full run."""
    config = get_scenario("paper_default").build_config(scale=0.02)

    def run():
        engine = ArrayEngine(config)
        engine.run()
        return engine.events_processed

    events = benchmark.pedantic(run, rounds=1, iterations=1)
    assert events > 1_000
