"""The ``repro lint`` command, and the acceptance gate: the tree is clean.

``test_live_tree_is_clean`` is the contract the whole PR rests on — the
default lint surface (``src``, ``benchmarks``, ``examples``) must stay
free of unsuppressed findings, so any future violation of a determinism
rule fails the tier-1 suite, not just CI's lint job.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.devtools.staticcheck.framework import DEFAULT_PATHS, run_detlint

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

BAD_TREE = {
    "src/repro/simulation/leaky.py": (
        '"""fixture"""\n'
        "import random\n"
        "import time\n"
        "def jitter():\n"
        "    return random.random() + time.time()\n"
    ),
}


def write_tree(root: Path, files: dict[str, str]) -> None:
    for relpath, text in files.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)


class TestLiveTree:
    def test_live_tree_is_clean(self):
        assert run_detlint(REPO_ROOT, paths=list(DEFAULT_PATHS)) == []

    def test_lint_exits_zero_on_the_live_tree(self, capsys):
        assert repro_main(["lint", "--root", str(REPO_ROOT)]) == 0
        assert "detlint: ok" in capsys.readouterr().out


class TestReproLintCommand:
    def test_violations_exit_one(self, tmp_path, capsys):
        write_tree(tmp_path, BAD_TREE)
        assert repro_main(["lint", "src", "--root", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "[no-global-rng]" in err
        assert "[no-wallclock]" in err

    def test_rule_filter_narrows_the_findings(self, tmp_path, capsys):
        write_tree(tmp_path, BAD_TREE)
        assert repro_main([
            "lint", "src", "--root", str(tmp_path), "--rules", "no-wallclock",
        ]) == 1
        err = capsys.readouterr().err
        assert "[no-wallclock]" in err and "[no-global-rng]" not in err

    def test_unknown_rule_is_a_usage_error(self, capsys):
        assert repro_main(["lint", "--rules", "no-such-rule"]) == 2
        assert "unknown detlint rule" in capsys.readouterr().err

    @pytest.mark.parametrize("rule", ["slots-hotpath", "export-sync"])
    def test_removed_rules_are_unknown(self, rule, capsys):
        # their contracts are runtime tests now; selecting them must not
        # pass silently as a clean run of nothing
        assert repro_main(["lint", "--rules", rule]) == 2
        assert "unknown detlint rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert repro_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("no-global-rng", "no-wallclock", "no-unordered-iteration"):
            assert f"{rule}:" in out
        assert len(out.splitlines()) == 3

    def test_json_format(self, tmp_path, capsys):
        write_tree(tmp_path, BAD_TREE)
        assert repro_main([
            "lint", "src", "--root", str(tmp_path), "--rules", "no-wallclock",
            "--format", "json",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload and payload[0]["rule"] == "no-wallclock"
        assert set(payload[0]) == {"file", "line", "rule", "message",
                                   "severity"}
