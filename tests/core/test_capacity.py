"""Unit tests for capacity accounting, including the paper's Figure 3 math."""

import pytest

from repro.core.capacity import CapacityLedger, max_capacity_sessions
from repro.errors import CapacityError


class TestFigure3Arithmetic:
    """The worked capacity example of the paper's Section 4 (Figure 3)."""

    def test_initial_capacity_is_one(self, ladder):
        # two class-2 peers (1/4 each) and two class-1 peers (1/2 each):
        # floor(1/4 + 1/4 + 1/2 + 1/2) = floor(1.5) = 1
        ledger = CapacityLedger(ladder)
        for peer_class in (2, 2, 1, 1):
            ledger.add_supplier(peer_class)
        assert ledger.sessions_fractional == 1.5
        assert ledger.sessions == 1

    def test_admitting_class1_requester_grows_capacity_to_two(self, ladder):
        ledger = CapacityLedger(ladder)
        for peer_class in (2, 2, 1, 1):
            ledger.add_supplier(peer_class)
        ledger.add_supplier(1)  # Pr3 finished its session and joined
        assert ledger.sessions == 2

    def test_admitting_class2_requester_keeps_capacity_one(self, ladder):
        ledger = CapacityLedger(ladder)
        for peer_class in (2, 2, 1, 1):
            ledger.add_supplier(peer_class)
        ledger.add_supplier(2)  # Pr1 (class 2) admitted instead
        assert ledger.sessions == 1


class TestLedger:
    def test_empty_ledger(self, ladder):
        ledger = CapacityLedger(ladder)
        assert ledger.sessions == 0
        assert ledger.num_suppliers == 0

    def test_add_remove_roundtrip(self, ladder):
        ledger = CapacityLedger(ladder)
        ledger.add_supplier(3)
        ledger.add_supplier(3)
        ledger.remove_supplier(3)
        assert ledger.per_class_count[3] == 1
        assert ledger.total_units == ladder.offer_units(3)

    def test_remove_absent_supplier_raises(self, ladder):
        with pytest.raises(CapacityError):
            CapacityLedger(ladder).remove_supplier(1)

    def test_sixteen_class4_peers_make_one_session(self, ladder):
        ledger = CapacityLedger(ladder)
        for _ in range(16):
            ledger.add_supplier(4)
        assert ledger.sessions == 1
        assert ledger.sessions_fractional == 1.0
        assert ledger.num_suppliers == 16


class TestPopulationCapacity:
    def test_paper_population_maximum(self, ladder):
        # 5100 class-1, 5000 class-2, 20000 class-3, 20000 class-4:
        # 5100/2 + 5000/4 + 20000/8 + 20000/16 = 7550 sessions
        counts = {1: 5100, 2: 5000, 3: 20000, 4: 20000}
        assert max_capacity_sessions(counts, ladder) == 7550

    def test_negative_count_rejected(self, ladder):
        with pytest.raises(CapacityError):
            max_capacity_sessions({1: -1}, ladder)

    def test_max_capacity_floors(self, ladder):
        assert max_capacity_sessions({1: 3}, ladder) == 1  # 1.5 -> 1
