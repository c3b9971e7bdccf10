"""Hypothesis *stateful* (model-based) tests for the mutable substrates.

Each rule machine drives a component through random operation sequences
while a trivially-correct reference model shadows it; any divergence is a
bug with a minimized reproduction.  Covered components:

* :class:`CentralDirectory` — the O(1) swap-removal registry;
* :class:`CapacityLedger` — incremental capacity accounting;
* :class:`ChordRing` — joins/leaves/puts/gets against a dict model.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.capacity import CapacityLedger
from repro.core.model import ClassLadder
from repro.network.chord import ChordRing
from repro.network.directory import CentralDirectory

LADDER = ClassLadder(4)


class DirectoryMachine(RuleBasedStateMachine):
    """CentralDirectory vs membership sets plus a global class map.

    A peer's class is a property of the *peer* (the directory keeps one
    class per peer id, updated by the latest registration for any media),
    while membership is per media file — the model mirrors both.
    """

    def __init__(self):
        super().__init__()
        self.directory = CentralDirectory()
        self.members: dict[str, set[int]] = {"a": set(), "b": set()}
        self.classes: dict[int, int] = {}
        self.rng = random.Random(0)

    @rule(media=st.sampled_from(["a", "b"]),
          peer=st.integers(0, 30),
          peer_class=st.integers(1, 4))
    def register(self, media, peer, peer_class):
        self.directory.register(media, peer, peer_class)
        self.members[media].add(peer)
        self.classes[peer] = peer_class

    @rule(media=st.sampled_from(["a", "b"]), peer=st.integers(0, 30))
    def unregister(self, media, peer):
        if peer in self.members[media]:
            self.directory.unregister(media, peer)
            self.members[media].discard(peer)
        else:
            try:
                self.directory.unregister(media, peer)
                raise AssertionError("unregister of absent peer must raise")
            except Exception:
                pass

    @invariant()
    def counts_match(self):
        for media in ("a", "b"):
            assert self.directory.num_suppliers(media) == len(self.members[media])

    @invariant()
    def sampling_returns_exactly_the_population(self):
        for media in ("a", "b"):
            sample = self.directory.sample_candidates(media, 1000, self.rng)
            expected = {peer: self.classes[peer] for peer in self.members[media]}
            assert dict(sample) == expected


class LedgerMachine(RuleBasedStateMachine):
    """CapacityLedger vs a plain list of classes."""

    def __init__(self):
        super().__init__()
        self.ledger = CapacityLedger(LADDER)
        self.model: list[int] = []

    @rule(peer_class=st.integers(1, 4))
    def add(self, peer_class):
        self.ledger.add_supplier(peer_class)
        self.model.append(peer_class)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove(self, data):
        peer_class = data.draw(st.sampled_from(self.model))
        self.ledger.remove_supplier(peer_class)
        self.model.remove(peer_class)

    @invariant()
    def totals_match(self):
        expected_units = sum(LADDER.offer_units(c) for c in self.model)
        assert self.ledger.total_units == expected_units
        assert self.ledger.sessions == expected_units // LADDER.full_rate_units
        assert self.ledger.num_suppliers == len(self.model)

    @invariant()
    def per_class_counts_match(self):
        for peer_class in LADDER.classes:
            assert self.ledger.per_class_count[peer_class] == self.model.count(
                peer_class
            )


class ChordMachine(RuleBasedStateMachine):
    """ChordRing storage vs a plain dict, across joins and leaves."""

    def __init__(self):
        super().__init__()
        self.ring = ChordRing(bits=16)
        self.ring.join(0)  # keep the ring non-empty
        self.next_peer = 1
        self.model: dict[str, object] = {}

    @rule()
    def join(self):
        self.ring.join(self.next_peer)
        self.next_peer += 1

    @precondition(lambda self: len(self.ring) > 1)
    @rule(data=st.data())
    def leave(self, data):
        node = data.draw(st.sampled_from(self.ring.nodes))
        self.ring.leave(node)

    @rule(name=st.sampled_from([f"k{i}" for i in range(12)]),
          value=st.integers())
    def put(self, name, value):
        if name in self.model:
            self.ring.delete(name)
        self.ring.put(name, value)
        self.model[name] = value

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        name = data.draw(st.sampled_from(sorted(self.model)))
        assert self.ring.delete(name) is True
        del self.model[name]

    @invariant()
    def every_key_retrievable(self):
        for name, value in self.model.items():
            assert self.ring.get(name) == [value]

    @invariant()
    def ring_is_a_single_cycle(self):
        nodes = self.ring.nodes
        seen = set()
        node = nodes[0]
        for _ in range(len(nodes)):
            seen.add(node.node_id)
            node = node.successor
        assert len(seen) == len(nodes)


TestDirectoryStateful = DirectoryMachine.TestCase
TestLedgerStateful = LedgerMachine.TestCase
TestChordStateful = ChordMachine.TestCase

for machine in (TestDirectoryStateful, TestLedgerStateful, TestChordStateful):
    machine.settings = settings(max_examples=30, stateful_step_count=30,
                                deadline=None)
