"""Unit tests for the admission policies (DAC, NDAC, variants)."""

import pytest

from repro.core.admission import SupplierAdmissionState
from repro.errors import ConfigurationError
from repro.protocols import POLICY_REGISTRY, make_policy
from repro.protocols.ndac import NdacSupplierState


class TestRegistry:
    def test_all_policies_registered(self):
        assert set(POLICY_REGISTRY) >= {
            "dac",
            "ndac",
            "dac-no-reminder",
            "dac-no-elevation",
            "dac-linear-elevation",
            "dac-generous-init",
        }

    def test_make_policy_by_name(self):
        assert make_policy("dac").state is SupplierAdmissionState
        assert make_policy("ndac").state is NdacSupplierState
        assert make_policy("dac") is POLICY_REGISTRY["dac"]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("nonsense")


class TestDacPolicy:
    def test_feature_flags(self):
        policy = make_policy("dac")
        assert policy.uses_reminders and policy.uses_idle_elevation

    def test_state_has_differentiated_vector(self, ladder):
        state = make_policy("dac").make_supplier_state(2, ladder)
        assert state.grant_probability(4) == 0.25


class TestNdacPolicy:
    @pytest.fixture
    def state(self, ladder):
        return make_policy("ndac").make_supplier_state(3, ladder)

    def test_feature_flags(self):
        policy = make_policy("ndac")
        assert not policy.uses_reminders and not policy.uses_idle_elevation

    def test_always_grants_everyone(self, state, ladder):
        for peer_class in ladder.classes:
            assert state.grant_probability(peer_class) == 1.0
            assert state.favors(peer_class)

    def test_vector_never_changes(self, state):
        state.on_session_start()
        state.on_request_while_busy(1)
        state.on_reminder(1)
        state.on_session_end()
        assert state.grant_probability(4) == 1.0
        assert state.on_idle_timeout() is False

    def test_busy_flag_works(self, state):
        state.on_session_start()
        assert state.busy
        with pytest.raises(ConfigurationError):
            state.on_session_start()
        state.on_session_end()
        assert not state.busy

    def test_lowest_favored_is_bottom_class(self, state, ladder):
        assert state.lowest_favored_class() == ladder.num_classes


class TestVariantPolicies:
    def test_no_reminder_keeps_dac_vector_dynamics(self, ladder):
        state = make_policy("dac-no-reminder").make_supplier_state(1, ladder)
        assert state.grant_probability(2) == 0.5
        assert state.on_idle_timeout() is True

    def test_linear_elevation_steps_additively(self, ladder):
        state = make_policy("dac-linear-elevation").make_supplier_state(1, ladder)
        assert state.on_idle_timeout() is True
        # 0.5 + 0.125, 0.25 + 0.125, 0.125 + 0.125
        assert state.vector.probabilities == [1.0, 0.625, 0.375, 0.25]

    def test_linear_elevation_session_end_uses_linear_step(self, ladder):
        state = make_policy("dac-linear-elevation").make_supplier_state(1, ladder)
        state.on_session_start()
        state.on_session_end()
        assert state.vector.probabilities == [1.0, 0.625, 0.375, 0.25]

    def test_linear_elevation_tighten_still_reinitializes(self, ladder):
        state = make_policy("dac-linear-elevation").make_supplier_state(1, ladder)
        state.on_session_start()
        state.on_reminder(1)
        state.on_session_end()
        assert state.vector.probabilities == [1.0, 0.5, 0.25, 0.125]

    def test_linear_idle_timeout_while_busy_is_noop(self, ladder):
        state = make_policy("dac-linear-elevation").make_supplier_state(1, ladder)
        state.on_session_start()
        assert state.on_idle_timeout() is False

    def test_generous_init_starts_all_ones_but_tightens(self, ladder):
        state = make_policy("dac-generous-init").make_supplier_state(1, ladder)
        assert state.vector.probabilities == [1.0] * 4
        state.on_session_start()
        state.on_reminder(2)
        state.on_session_end()
        assert state.vector.probabilities == [1.0, 1.0, 0.5, 0.25]
