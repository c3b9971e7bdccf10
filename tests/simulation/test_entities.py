"""Unit tests for per-peer simulation state."""

import pytest

from repro.core.model import PeerRole
from repro.errors import SimulationError
from repro.protocols.dac import DacPolicy
from repro.simulation.entities import SimPeer


class TestSimPeer:
    def test_seed_starts_as_supplier(self):
        peer = SimPeer(0, 1, is_seed=True)
        assert peer.role is PeerRole.SUPPLYING
        assert peer.is_supplier

    def test_requester_starts_without_admission_state(self):
        peer = SimPeer(1, 3)
        assert peer.role is PeerRole.REQUESTING
        assert peer.admission is None
        assert peer.rejections == 0

    def test_waiting_time_none_until_admitted(self):
        peer = SimPeer(1, 3)
        assert peer.waiting_time is None
        peer.first_request_time = 100.0
        assert peer.waiting_time is None
        peer.admitted_time = 500.0
        assert peer.waiting_time == 400.0

    def test_promote_attaches_state(self, ladder):
        peer = SimPeer(1, 2)
        state = DacPolicy().make_supplier_state(2, ladder)
        peer.promote(state)
        assert peer.is_supplier
        assert peer.admission is state

    def test_double_promotion_rejected(self, ladder):
        peer = SimPeer(1, 2)
        peer.promote(DacPolicy().make_supplier_state(2, ladder))
        with pytest.raises(SimulationError):
            peer.promote(DacPolicy().make_supplier_state(2, ladder))

    def test_idle_generation_bumps(self):
        peer = SimPeer(1, 2)
        first = peer.idle_timer_generation
        assert peer.bump_idle_generation() == first + 1
        assert peer.idle_timer_generation == first + 1

    def test_slots_prevent_arbitrary_attributes(self):
        peer = SimPeer(1, 2)
        with pytest.raises(AttributeError):
            peer.some_random_field = 1
