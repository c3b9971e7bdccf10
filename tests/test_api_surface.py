"""API-surface and error-hierarchy tests.

A downstream user programs against ``repro``'s public names; these tests
pin that surface so refactors cannot silently drop or rename it, and check
the error hierarchy contract (everything catchable as P2PStreamError).
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import repro
import repro._version
from repro import errors


class TestPublicApi:
    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_all_is_a_list_of_unique_strings(self):
        assert isinstance(repro.__all__, list)
        assert all(isinstance(name, str) for name in repro.__all__)
        assert len(set(repro.__all__)) == len(repro.__all__)

    def test_every_public_name_is_exported(self):
        public = {
            name for name, value in vars(repro).items()
            if not name.startswith("_") and not inspect.ismodule(value)
        }
        assert sorted(public - set(repro.__all__)) == []

    def test_core_entry_points_present(self):
        for name in (
            "ClassLadder",
            "SupplierOffer",
            "ots_assignment",
            "sweep_assignment",
            "contiguous_assignment",
            "round_robin_assignment",
            "min_start_delay_slots",
            "theorem1_min_delay_slots",
            "AdmissionVector",
            "SupplierAdmissionState",
            "MediaFile",
            "plan_session",
            "SimulationConfig",
            "run_simulation",
            "run_experiment",
        ):
            assert name in repro.__all__

    def test_study_api_present(self):
        for name in ("Study", "RunSpec", "RunRecord", "ResultSet", "ResultStore"):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_version_is_a_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_version_is_exported_from_the_version_module(self):
        assert "__version__" in repro.__all__
        # identity, not equality: a copy of the literal in __init__ would
        # compare equal today and drift at the next bump
        assert repro.__version__ is repro._version.__version__

    def test_version_module_assigns_a_string_literal(self):
        # setuptools reads this literal as the distribution's version
        source = Path(repro._version.__file__).read_text(encoding="utf-8")
        assigned = {
            target.id: node.value
            for node in ast.parse(source).body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        literal = assigned["__version__"]
        assert isinstance(literal, ast.Constant)
        assert literal.value == repro.__version__

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.core",
            "repro.streaming",
            "repro.network",
            "repro.protocols",
            "repro.simulation",
            "repro.scenarios",
            "repro.orchestration",
            "repro.analysis",
        ],
    )
    def test_subpackages_export_alls(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__all__, f"{module_name} has no __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} missing"


class TestErrorHierarchy:
    def test_every_error_derives_from_base(self):
        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, errors.P2PStreamError)

    def test_infeasible_session_is_an_assignment_error(self):
        assert issubclass(errors.InfeasibleSessionError, errors.AssignmentError)

    def test_class_ladder_error_is_a_configuration_error(self):
        assert issubclass(errors.ClassLadderError, errors.ConfigurationError)

    def test_base_error_catchable_end_to_end(self):
        from repro.core.model import ClassLadder

        with pytest.raises(errors.P2PStreamError):
            ClassLadder(4).offer_units(9)

    def test_lookup_error_does_not_shadow_builtin(self):
        assert errors.LookupError_ is not LookupError
        assert not issubclass(errors.LookupError_, LookupError)
