"""Unit tests for the supplier-side DAC_p2p mechanics (Section 4.1)."""

import pytest

from repro.core.admission import AdmissionVector, SupplierAdmissionState
from repro.errors import ConfigurationError


class TestInitialVector:
    def test_paper_example_class2(self, ladder):
        # "for a class-2 supplying peer (and suppose N = 4), its initial
        #  admission probability vector is [1.0, 1.0, 0.5, 0.25]"
        vec = AdmissionVector.initial(2, ladder)
        assert vec.probabilities == [1.0, 1.0, 0.5, 0.25]

    def test_initial_favored_classes_paper_example(self, ladder):
        vec = AdmissionVector.initial(2, ladder)
        assert vec.favored_classes() == [1, 2]
        assert vec.lowest_favored_class() == 2

    def test_class1_vector_halves_below_own_class(self, ladder):
        vec = AdmissionVector.initial(1, ladder)
        assert vec.probabilities == [1.0, 0.5, 0.25, 0.125]

    def test_lowest_class_supplier_starts_saturated(self, ladder):
        vec = AdmissionVector.initial(4, ladder)
        assert vec.probabilities == [1.0] * 4
        assert vec.is_saturated()

    def test_every_supplier_always_favors_class1(self, ladder):
        for own_class in ladder.classes:
            assert AdmissionVector.initial(own_class, ladder).is_favored(1)

    def test_all_ones_is_ndac_vector(self, ladder):
        vec = AdmissionVector.all_ones(ladder)
        assert vec.favored_classes() == [1, 2, 3, 4]


class TestElevation:
    def test_elevate_doubles_sub_one_entries(self, ladder):
        vec = AdmissionVector.initial(1, ladder)
        assert vec.elevate() is True
        assert vec.probabilities == [1.0, 1.0, 0.5, 0.25]

    def test_elevation_saturates_and_reports_no_change(self, ladder):
        vec = AdmissionVector.initial(1, ladder)
        changes = [vec.elevate() for _ in range(5)]
        # three elevations reach all-ones; the fourth reports no change
        assert changes == [True, True, True, False, False]
        assert vec.is_saturated()

    def test_elevation_never_exceeds_one(self, ladder):
        vec = AdmissionVector(ladder, [1.0, 0.75, 0.5, 0.25])
        vec.elevate()
        assert all(p <= 1.0 for p in vec.probabilities)


class TestTighten:
    def test_tighten_reinitializes_around_reminder_class(self, ladder):
        vec = AdmissionVector.all_ones(ladder)
        vec.tighten(2)
        assert vec.probabilities == [1.0, 1.0, 0.5, 0.25]

    def test_tighten_to_class1_is_strictest(self, ladder):
        vec = AdmissionVector.all_ones(ladder)
        vec.tighten(1)
        assert vec.probabilities == [1.0, 0.5, 0.25, 0.125]

    def test_tighten_validates_class(self, ladder):
        with pytest.raises(Exception):
            AdmissionVector.all_ones(ladder).tighten(9)

    def test_copy_is_independent(self, ladder):
        vec = AdmissionVector.initial(2, ladder)
        clone = vec.copy()
        clone.elevate()
        assert vec.probabilities == [1.0, 1.0, 0.5, 0.25]


class TestSupplierStateMachine:
    @pytest.fixture
    def state(self, ladder):
        return SupplierAdmissionState(own_class=2, ladder=ladder)

    def test_initial_state_idle_with_initial_vector(self, state):
        assert not state.busy
        assert state.vector.probabilities == [1.0, 1.0, 0.5, 0.25]
        assert state.lowest_favored_class() == 2

    def test_double_enlist_rejected(self, state):
        state.on_session_start()
        with pytest.raises(ConfigurationError):
            state.on_session_start()

    def test_session_end_without_favored_request_elevates(self, state):
        state.on_session_start()
        state.on_session_end()
        assert state.vector.probabilities == [1.0, 1.0, 1.0, 0.5]

    def test_session_end_with_favored_request_no_reminder_keeps_vector(self, state):
        state.on_session_start()
        state.on_request_while_busy(1)  # class 1 is favored
        state.on_session_end()
        assert state.vector.probabilities == [1.0, 1.0, 0.5, 0.25]

    def test_unfavored_request_while_busy_still_elevates(self, state):
        state.on_session_start()
        state.on_request_while_busy(4)  # Pa[4] = 0.25 < 1: not favored
        state.on_session_end()
        assert state.vector.probabilities == [1.0, 1.0, 1.0, 0.5]

    def test_reminder_tightens_to_highest_reminder_class(self, state):
        state.on_session_start()
        state.on_request_while_busy(2)
        state.on_reminder(2)
        state.on_request_while_busy(1)
        state.on_reminder(1)
        state.on_session_end()
        # k-hat = 1 (the highest class that left a reminder)
        assert state.vector.probabilities == [1.0, 0.5, 0.25, 0.125]

    def test_reminder_beats_elevation(self, state):
        state.on_session_start()
        state.on_reminder(2)
        state.on_session_end()
        assert state.vector.probabilities == [1.0, 1.0, 0.5, 0.25]

    def test_session_bookkeeping_resets_between_sessions(self, state):
        state.on_session_start()
        state.on_request_while_busy(1)
        state.on_session_end()
        # Second session sees fresh bookkeeping: no favored request recorded,
        # so ending it elevates.
        before = list(state.vector.probabilities)
        state.on_session_start()
        state.on_session_end()
        assert state.vector.probabilities != before

    def test_idle_timeout_elevates_until_saturated(self, state):
        assert state.on_idle_timeout() is True
        assert state.vector.probabilities == [1.0, 1.0, 1.0, 0.5]
        assert state.on_idle_timeout() is True
        assert state.on_idle_timeout() is False  # saturated now

    def test_idle_timeout_while_busy_rejected(self, state):
        state.on_session_start()
        with pytest.raises(ConfigurationError):
            state.on_idle_timeout()

    def test_grant_probability_reads_vector(self, state):
        assert state.grant_probability(1) == 1.0
        assert state.grant_probability(4) == 0.25
        assert state.favors(2) and not state.favors(3)
