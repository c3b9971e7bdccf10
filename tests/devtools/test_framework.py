"""The detlint harness: scoping, suppressions, the walk."""

import ast
from pathlib import Path

import pytest

from repro.devtools.reporting import Finding
from repro.devtools.staticcheck.framework import (
    ModuleSource,
    RuleScope,
    iter_python_files,
    load_module,
    parse_suppressions,
    run_detlint,
)
from repro.devtools.staticcheck.rules import NoWallclock, all_checkers


class TestRuleScope:
    def test_default_scope_matches_everything(self):
        assert RuleScope().applies("anything/at/all.py")

    def test_include_prefix(self):
        scope = RuleScope(include=("src/repro/simulation/",))
        assert scope.applies("src/repro/simulation/arrayengine.py")
        assert not scope.applies("benchmarks/bench_x.py")

    def test_exclude_wins_over_include(self):
        scope = RuleScope(include=("src/",), exclude=("src/repro/devtools/",))
        assert scope.applies("src/repro/cli.py")
        assert not scope.applies("src/repro/devtools/reporting.py")


class TestSuppressions:
    def test_bare_ignore_silences_every_rule(self):
        table = parse_suppressions("x = 1  # detlint: ignore\n")
        assert table == {1: None}

    def test_rule_list_is_parsed(self):
        table = parse_suppressions(
            "a\nb  # detlint: ignore[no-wallclock, no-global-rng]\n"
        )
        assert table[2] == frozenset({"no-wallclock", "no-global-rng"})

    def test_unrelated_comments_are_not_suppressions(self):
        assert parse_suppressions("x = 1  # a normal comment\n") == {}

    def test_module_source_suppressed(self):
        text = "import time\nt = time.time()  # detlint: ignore[no-wallclock]\n"
        module = ModuleSource(
            path=Path("m.py"), relpath="m.py", text=text,
            tree=ast.parse(text), suppressions=parse_suppressions(text),
        )
        assert module.suppressed(2, "no-wallclock")
        assert not module.suppressed(2, "no-global-rng")
        assert not module.suppressed(1, "no-wallclock")


class TestLoadModule:
    def test_parse_error_becomes_a_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        loaded = load_module(tmp_path, bad)
        assert isinstance(loaded, Finding)
        assert loaded.rule == "parse-error"
        assert loaded.file == "bad.py"

    def test_good_module_carries_suppressions(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("x = 1  # detlint: ignore\n")
        loaded = load_module(tmp_path, good)
        assert isinstance(loaded, ModuleSource)
        assert loaded.suppressions == {1: None}


class TestIterPythonFiles:
    def test_skips_generated_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "mod.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "output").mkdir()
        (tmp_path / "pkg" / "output" / "gen.py").write_text("x = 1\n")
        files = iter_python_files(tmp_path, ["pkg"])
        assert [f.name for f in files] == ["mod.py"]

    def test_single_file_selector_and_dedup(self, tmp_path):
        (tmp_path / "one.py").write_text("x = 1\n")
        files = iter_python_files(tmp_path, ["one.py", "one.py", "missing"])
        assert [f.name for f in files] == ["one.py"]


class TestRunDetlint:
    def test_inline_suppression_silences_a_module_finding(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "mod.py").write_text(
            "import time\n"
            "t = time.perf_counter()  # detlint: ignore[no-wallclock]\n"
        )
        checker = NoWallclock(scope=RuleScope(include=("src/",)))
        assert run_detlint(tmp_path, paths=["src"], checkers=[checker]) == []

    def test_suppressing_another_rule_keeps_the_finding(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "mod.py").write_text(
            "import time\n"
            "t = time.perf_counter()  # detlint: ignore[no-global-rng]\n"
        )
        checker = NoWallclock(scope=RuleScope(include=("src/",)))
        findings = run_detlint(tmp_path, paths=["src"], checkers=[checker])
        assert [(f.line, f.rule) for f in findings] == [(2, "no-wallclock")]

    def test_out_of_scope_modules_are_not_checked(self, tmp_path):
        bench = tmp_path / "benchmarks"
        bench.mkdir()
        (bench / "bench_x.py").write_text("import time\nt = time.time()\n")
        checker = NoWallclock(scope=RuleScope(include=("src/",)))
        assert run_detlint(
            tmp_path, paths=["benchmarks"], checkers=[checker]
        ) == []

    def test_unparseable_file_fails_the_run(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "bad.py").write_text("def broken(:\n")
        findings = run_detlint(tmp_path, paths=["src"], checkers=[])
        assert [f.rule for f in findings] == ["parse-error"]


class TestRuleSelection:
    def test_all_checkers_covers_the_three_rules(self):
        names = {c.rule for c in all_checkers()}
        assert names == {
            "no-global-rng", "no-wallclock", "no-unordered-iteration",
        }

    def test_filtering_preserves_request_order(self):
        selected = all_checkers(["no-wallclock", "no-global-rng"])
        assert [c.rule for c in selected] == ["no-wallclock", "no-global-rng"]

    def test_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="unknown detlint rule"):
            all_checkers(["no-such-rule"])
