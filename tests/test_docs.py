"""The documentation suite stays truthful: links, CLI refs, docstrings.

``repro.devtools.docscheck`` is the single source of the rules
(``scripts/check_docs.py`` is its CI shim, run next to the pdoc
API-reference build); these tests run the same checks in the tier-1
suite so a broken cross-reference fails before it ships, and pin that
the checker itself still detects each failure class.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = REPO_ROOT / "scripts"

sys.path.insert(0, str(SCRIPTS))

import check_docs  # noqa: E402


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
        for anchor in ("Simulator", "MetricsPipeline", "Study",
                       "LifecycleDynamics", "lifecycle.py"):
            assert anchor in text

    def test_experiments_covers_every_cli_command_and_artifact(self):
        text = (REPO_ROOT / "docs" / "EXPERIMENTS.md").read_text()
        commands, _flags = check_docs.cli_vocabulary()
        for command in commands:
            assert f"`{command}`" in text, f"EXPERIMENTS.md misses {command!r}"
        for artifact in ("fig1", "fig4", "fig5", "fig6", "fig7",
                         "fig8a", "fig8b", "fig9", "table1"):
            assert artifact in text, f"EXPERIMENTS.md misses {artifact!r}"


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


@pytest.mark.parametrize("doc", ["docs/ARCHITECTURE.md", "docs/EXPERIMENTS.md"])
def test_docs_mention_the_lifecycle_extension(doc):
    """The PR-5 documentation actually documents PR 5."""
    text = (REPO_ROOT / doc).read_text()
    assert "lifecycle" in text
    assert "flash_departure" in text
