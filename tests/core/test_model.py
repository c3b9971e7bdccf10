"""Unit tests for the peer/bandwidth-class model (Section 2)."""

import pytest

from repro.core.model import ClassLadder, SupplierOffer, sort_offers_descending
from repro.errors import ClassLadderError, ConfigurationError


class TestClassLadder:
    def test_full_rate_units_is_power_of_two(self):
        assert ClassLadder(4).full_rate_units == 16
        assert ClassLadder(1).full_rate_units == 2
        assert ClassLadder(6).full_rate_units == 64

    def test_offer_units_follow_paper_ladder(self):
        ladder = ClassLadder(4)
        # class-i offers R0 / 2**i, i.e. 2**(N-i) units of R0/2**N
        assert [ladder.offer_units(c) for c in (1, 2, 3, 4)] == [8, 4, 2, 1]

    def test_offer_fraction_is_half_per_class_step(self):
        ladder = ClassLadder(4)
        assert ladder.offer_fraction(1) == 0.5
        assert ladder.offer_fraction(2) == 0.25
        assert ladder.offer_fraction(4) == 0.0625

    def test_offers_of_all_classes_are_distinct_powers(self):
        ladder = ClassLadder(5)
        units = [ladder.offer_units(c) for c in ladder.classes]
        assert units == sorted(units, reverse=True)
        assert all(u & (u - 1) == 0 for u in units)  # powers of two

    def test_class_for_units_inverts_offer_units(self):
        ladder = ClassLadder(4)
        for c in ladder.classes:
            assert ladder.class_for_units(ladder.offer_units(c)) == c

    def test_class_for_units_rejects_off_ladder_values(self):
        with pytest.raises(ClassLadderError):
            ClassLadder(4).class_for_units(3)

    def test_segment_slots_doubles_per_class(self):
        ladder = ClassLadder(4)
        assert [ladder.segment_slots(c) for c in (1, 2, 3, 4)] == [2, 4, 8, 16]

    def test_validate_class_bounds(self):
        ladder = ClassLadder(4)
        with pytest.raises(ClassLadderError):
            ladder.validate_class(0)
        with pytest.raises(ClassLadderError):
            ladder.validate_class(5)
        with pytest.raises(ClassLadderError):
            ladder.validate_class(True)  # bools are not classes

    def test_ladder_needs_at_least_one_class(self):
        with pytest.raises(ConfigurationError):
            ClassLadder(0)

    def test_is_lower_class_uses_paper_convention(self):
        ladder = ClassLadder(4)
        # "the lower the i, the higher the class"
        assert ladder.is_lower_class(4, 1)
        assert not ladder.is_lower_class(1, 4)
        assert not ladder.is_lower_class(2, 2)


class TestOffers:
    def test_sort_offers_descending_by_bandwidth_then_id(self):
        ladder = ClassLadder(4)
        offers = [
            SupplierOffer(3, 3, ladder.offer_units(3)),
            SupplierOffer(1, 1, ladder.offer_units(1)),
            SupplierOffer(2, 3, ladder.offer_units(3)),
        ]
        ordered = sort_offers_descending(offers)
        assert [o.peer_id for o in ordered] == [1, 2, 3]

    def test_sort_is_stable_and_non_mutating(self):
        ladder = ClassLadder(4)
        offers = [SupplierOffer(i, 4, 1) for i in (5, 3, 9)]
        ordered = sort_offers_descending(offers)
        assert [o.peer_id for o in ordered] == [3, 5, 9]
        assert [o.peer_id for o in offers] == [5, 3, 9]
