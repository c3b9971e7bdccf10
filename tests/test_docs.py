"""The documentation suite stays truthful: links, CLI refs, docstrings.

``repro.devtools.docscheck`` is the single source of the rules
(``scripts/check_docs.py`` is its CI shim, run next to the pdoc
API-reference build); these tests run the same checks in the tier-1
suite so a broken cross-reference fails before it ships, and pin that
the checker itself still detects each failure class.
"""

import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.experiments import EXPERIMENTS
from repro.cli import _build_study, _make_config, build_parser
from repro.devtools.staticcheck import all_checkers

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = REPO_ROOT / "scripts"

sys.path.insert(0, str(SCRIPTS))

import check_docs  # noqa: E402


def documented_recipes(path: Path) -> dict[str, tuple[str, str]]:
    """Each ``experiment <id>`` line followed by a ``study`` line, by id."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return {
        shlex.split(experiment)[4]: (experiment, study)
        for experiment, study in zip(lines, lines[1:])
        if experiment.startswith("python -m repro experiment ")
        and study.startswith("python -m repro study ")
    }


def spec_hashes(line: str) -> list[str]:
    """The sorted spec hashes a documented ``experiment``/``study`` line runs."""
    args = build_parser().parse_args(shlex.split(line, comments=True)[3:])
    if args.command == "experiment":
        study = EXPERIMENTS[args.experiment_id].study(_make_config(args))
    else:
        study = _build_study(args)
    return sorted(spec.spec_hash for spec in study.specs())


RECIPES = documented_recipes(REPO_ROOT / "docs" / "EXPERIMENTS.md")


class TestRepositoryDocs:
    def test_docs_suite_passes_the_checker(self):
        result = subprocess.run(
            [sys.executable, str(SCRIPTS / "check_docs.py"), str(REPO_ROOT)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr

    def test_expected_documents_exist(self):
        for name in ("README.md", "docs/ARCHITECTURE.md", "docs/EXPERIMENTS.md"):
            assert (REPO_ROOT / name).exists(), f"{name} is missing"

    def test_architecture_names_every_package(self):
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        for package in ("core", "streaming", "network", "protocols",
                        "simulation", "scenarios", "orchestration", "analysis"):
            assert f"{package}/" in text, f"ARCHITECTURE.md misses {package}/"
        # the PR seams and the lifecycle layer are called out
        for anchor in ("ArrayEngine", "MetricsPipeline", "Study",
                       "LifecycleModel", "lifecycle.py"):
            assert anchor in text

    def test_experiments_covers_every_cli_command_and_artifact(self):
        text = (REPO_ROOT / "docs" / "EXPERIMENTS.md").read_text()
        commands, _flags = check_docs.cli_vocabulary()
        for command in commands:
            assert f"`{command}`" in text, f"EXPERIMENTS.md misses {command!r}"
        for artifact in ("fig1", "fig4", "fig5", "fig6", "fig7",
                         "fig8a", "fig8b", "fig9", "table1"):
            assert artifact in text, f"EXPERIMENTS.md misses {artifact!r}"


class TestDocumentedRecipes:
    """A ``# same, by hand`` study line runs exactly its experiment's grid."""

    def test_every_swept_artifact_has_a_study_recipe(self):
        assert {"fig4", "table1", "fig8a", "fig8b", "fig9"} <= set(RECIPES)

    @pytest.mark.parametrize("experiment_id", sorted(RECIPES))
    def test_study_line_expands_to_the_experiment_grid(self, experiment_id):
        experiment_line, study_line = RECIPES[experiment_id]
        assert spec_hashes(study_line) == spec_hashes(experiment_line), study_line

    def test_lint_lines_name_known_rules(self):
        lines = [
            line
            for line in (REPO_ROOT / "docs" / "EXPERIMENTS.md")
            .read_text(encoding="utf-8").splitlines()
            if line.startswith("python -m repro lint")
        ]
        assert lines
        for line in lines:
            args = build_parser().parse_args(shlex.split(line, comments=True)[3:])
            all_checkers(args.rules)  # raises on a rule name it does not know


class TestCheckerDetectsRot:
    """Each failure class still trips the checker (guards the guard)."""

    def write_readme(self, tmp_path, body: str) -> Path:
        (tmp_path / "README.md").write_text(body, encoding="utf-8")
        return tmp_path

    def test_broken_link_detected(self, tmp_path):
        root = self.write_readme(tmp_path, "[gone](docs/NOPE.md)\n")
        assert any("broken link" in p.message for p in check_docs.check_markdown(root))

    def test_missing_path_reference_detected(self, tmp_path):
        root = self.write_readme(tmp_path, "see `src/repro/not_there.py`\n")
        assert any(
            "does not exist" in p.message
            for p in check_docs.check_markdown(root)
        )

    def test_missing_path_after_a_fenced_block_detected(self, tmp_path):
        root = self.write_readme(
            tmp_path,
            "```bash\npython -m repro run\n```\n\nsee `src/repro/not_there.py`\n",
        )
        findings = check_docs.check_markdown(root)
        assert [(p.line, p.message) for p in findings] == [
            (5, "referenced path 'src/repro/not_there.py' does not exist")
        ]

    def test_unimportable_dotted_reference_detected(self, tmp_path):
        root = self.write_readme(tmp_path, "see `repro.simulation.wormhole`\n")
        assert any(
            "does not import" in p.message
            for p in check_docs.check_markdown(root)
        )

    def test_resolvable_references_pass(self, tmp_path):
        root = self.write_readme(
            tmp_path,
            "see `repro.simulation.lifecycle` and `repro.orchestration.run_batch`\n",
        )
        assert check_docs.check_markdown(root) == []

    def test_unknown_flag_detected(self, tmp_path):
        root = self.write_readme(
            tmp_path, "```bash\npython -m repro run --warp 9\n```\n"
        )
        assert any(
            "--warp" in p.message for p in check_docs.check_cli_references(root)
        )

    def test_unknown_command_detected(self, tmp_path):
        root = self.write_readme(
            tmp_path, "```bash\npython -m repro teleport\n```\n"
        )
        assert any(
            "teleport" in p.message for p in check_docs.check_cli_references(root)
        )

    def test_prose_before_the_command_marker_is_ignored(self, tmp_path):
        root = self.write_readme(
            tmp_path,
            "the repro toolkit: python -m repro run --scenario quickstart\n",
        )
        assert check_docs.check_cli_references(root) == []

    def test_continuation_lines_are_joined(self, tmp_path):
        root = self.write_readme(
            tmp_path,
            "```bash\npython -m repro study --scale 0.02 \\\n"
            "    --bogus-flag 1\n```\n",
        )
        assert any(
            "--bogus-flag" in p.message
            for p in check_docs.check_cli_references(root)
        )

    def test_api_docstrings_are_complete(self):
        assert check_docs.check_api_docstrings() == []

    def export(self, monkeypatch, name, obj):
        """Bind ``obj`` as ``repro.<name>`` and list it in ``__all__``."""
        monkeypatch.setattr(repro, name, obj, raising=False)
        monkeypatch.setattr(repro, "__all__", [*repro.__all__, name])

    def test_undocumented_export_detected(self, monkeypatch):
        self.export(monkeypatch, "undocumented", lambda: None)
        assert [p.message for p in check_docs.check_api_docstrings()] == [
            "repro.undocumented has no docstring"
        ]

    def test_undocumented_method_of_an_export_detected(self, monkeypatch):
        class Documented:
            """Has a docstring; its public method has none."""

            def method(self):
                pass

        self.export(monkeypatch, "Documented", Documented)
        assert [p.message for p in check_docs.check_api_docstrings()] == [
            "repro.Documented.method has no docstring"
        ]

    def test_unbound_export_is_left_to_the_api_surface_tests(self, monkeypatch):
        # tests/test_api_surface.py::test_all_names_importable reports it
        monkeypatch.setattr(repro, "__all__", [*repro.__all__, "ghost"])
        assert check_docs.check_api_docstrings() == []


@pytest.mark.parametrize("doc", ["docs/ARCHITECTURE.md", "docs/EXPERIMENTS.md"])
def test_docs_mention_the_lifecycle_extension(doc):
    """The PR-5 documentation actually documents PR 5."""
    text = (REPO_ROOT / doc).read_text()
    assert "lifecycle" in text
    assert "flash_departure" in text
