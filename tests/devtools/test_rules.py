"""Every detlint rule: at least one flagging and one passing fixture.

Module rules get parsed source snippets; project rules get miniature
fixture trees under ``tmp_path`` built to the same shape as the real
repository (the rules are parameterized over their anchor paths exactly
so this suite can exercise them without touching the live tree).
"""

import ast
from pathlib import Path

import pytest

from repro.devtools.staticcheck.framework import ModuleSource, parse_suppressions
from repro.devtools.staticcheck.rules import (
    ConfigHashDrift,
    ExportSync,
    NoGlobalRng,
    NoUnorderedIteration,
    NoWallclock,
    SlotsHotpath,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def module(text: str, relpath: str = "src/repro/simulation/demo.py"):
    """A ModuleSource for an inline source snippet."""
    return ModuleSource(
        path=Path(relpath), relpath=relpath, text=text,
        tree=ast.parse(text), suppressions=parse_suppressions(text),
    )


class TestNoGlobalRng:
    def check(self, text):
        return list(NoGlobalRng().check_module(module(text)))

    def test_module_level_random_call_is_flagged(self):
        findings = self.check("import random\nx = random.random()\n")
        assert [f.line for f in findings] == [2]
        assert findings[0].rule == "no-global-rng"

    def test_from_random_import_is_flagged(self):
        assert self.check("from random import randint\n")

    def test_numpy_global_rng_is_flagged(self):
        assert self.check("import numpy as np\nx = np.random.rand(3)\n")

    def test_injected_random_stream_passes(self):
        assert self.check(
            "import random\n"
            "def draw(rng: random.Random):\n"
            "    return rng.random()\n"
        ) == []

    def test_seeded_constructors_pass(self):
        assert self.check("import random\nrng = random.Random(7)\n") == []
        assert self.check(
            "import numpy as np\nrng = np.random.default_rng(7)\n"
        ) == []

    def test_default_scope_is_the_package(self):
        assert NoGlobalRng().scope.applies("src/repro/core/model.py")
        assert not NoGlobalRng().scope.applies("benchmarks/bench_x.py")


class TestNoWallclock:
    def check(self, text):
        return list(NoWallclock().check_module(module(text)))

    def test_time_time_is_flagged(self):
        findings = self.check("import time\nt = time.time()\n")
        assert [f.rule for f in findings] == ["no-wallclock"]

    def test_perf_counter_and_from_import_are_flagged(self):
        assert self.check("import time\nt = time.perf_counter()\n")
        assert self.check("from time import monotonic\n")

    def test_datetime_now_is_flagged(self):
        assert self.check(
            "from datetime import datetime\nstamp = datetime.now()\n"
        )
        assert self.check("import datetime\ns = datetime.datetime.now()\n")

    def test_pure_duration_arithmetic_passes(self):
        assert self.check(
            "import time\ndef wait(t):\n    time.sleep(t)\n"
        ) == []

    def test_simulated_clock_passes(self):
        assert self.check(
            "class Simulator:\n"
            "    def __init__(self):\n"
            "        self.now = 0.0\n"
        ) == []

    def test_scope_allows_benchmarks_and_cli(self):
        scope = NoWallclock().scope
        assert scope.applies("src/repro/simulation/runner.py")
        assert scope.applies("src/repro/protocols/dac.py")
        assert not scope.applies("benchmarks/bench_engine_scaling.py")
        assert not scope.applies("src/repro/cli.py")


class TestNoUnorderedIteration:
    def check(self, text):
        return list(NoUnorderedIteration().check_module(module(text)))

    def test_for_over_set_literal_is_flagged(self):
        findings = self.check("for x in {1, 2, 3}:\n    pass\n")
        assert [f.rule for f in findings] == ["no-unordered-iteration"]

    def test_for_over_set_call_and_listdir_are_flagged(self):
        assert self.check("for x in set(items):\n    pass\n")
        assert self.check("import os\nfor f in os.listdir('.'):\n    pass\n")
        assert self.check("for p in path.glob('*.json'):\n    pass\n")

    def test_transparent_wrappers_do_not_hide_the_set(self):
        assert self.check("for i, x in enumerate(set(items)):\n    pass\n")

    def test_sorted_iteration_passes(self):
        assert self.check("for x in sorted({1, 2, 3}):\n    pass\n") == []
        assert self.check(
            "names = sorted(p.stem for p in root.glob('*.json'))\n"
        ) == []

    def test_order_insensitive_consumers_pass(self):
        assert self.check("n = max(len(x) for x in set(items))\n") == []

    def test_sum_over_a_set_source_is_still_flagged(self):
        # float addition is order-sensitive; ``sum`` is deliberately not
        # on the order-insensitive exemption list
        assert self.check("t = sum(x for x in set(values))\n")


def write_tree(root: Path, files: dict[str, str]) -> None:
    for relpath, text in files.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)


SLOTTED = (
    "class Fast:\n"
    "    __slots__ = ('a', 'b')\n"
)
UNSLOTTED = (
    "class Fast:\n"
    "    def __init__(self):\n"
    "        self.a = 1\n"
)
DATACLASS_SLOTS = (
    "from dataclasses import dataclass\n"
    "@dataclass(slots=True)\n"
    "class Fast:\n"
    "    a: int\n"
)


class TestSlotsHotpath:
    def run(self, tmp_path, source, classes=("Fast",)):
        write_tree(tmp_path, {"src/hot.py": source})
        checker = SlotsHotpath(registry={"src/hot.py": classes})
        return list(checker.check_project(tmp_path))

    def test_unslotted_hotpath_class_is_flagged(self, tmp_path):
        findings = self.run(tmp_path, UNSLOTTED)
        assert [f.rule for f in findings] == ["slots-hotpath"]
        assert "Fast" in findings[0].message

    def test_slots_declaration_passes(self, tmp_path):
        assert self.run(tmp_path, SLOTTED) == []

    def test_dataclass_slots_true_passes(self, tmp_path):
        assert self.run(tmp_path, DATACLASS_SLOTS) == []

    def test_stale_registry_entry_is_flagged(self, tmp_path):
        findings = self.run(tmp_path, SLOTTED, classes=("Fast", "Gone"))
        assert any("stale registry" in f.message for f in findings)

    def test_live_registry_is_clean(self):
        assert list(SlotsHotpath().check_project(REPO_ROOT)) == []


CONFIG_FIXTURE = (
    "from dataclasses import dataclass\n"
    "@dataclass(frozen=True)\n"
    "class SimulationConfig:\n"
    "    seed: int = 1\n"
    "    kernel: str = 'heap'\n"
    "    engine: str = 'object'\n"
)


def runspec_fixture(allowlist: str, pops: str) -> str:
    return (
        f"HASH_EXCLUDED_FIELDS: dict[str, str] = {{{allowlist}}}\n"
        "def config_hash(config):\n"
        "    data = dict(config)\n"
        f"{pops}"
        "    return hash(frozenset(data))\n"
    )


IN_SYNC = runspec_fixture(
    "'kernel': 'order-identical by contract', "
    "'engine': 'parity-pinned against the object engine'",
    "    data.pop('kernel', None)\n    data.pop('engine', None)\n",
)


class TestConfigHashDrift:
    def run(self, tmp_path, files):
        write_tree(tmp_path, files)
        checker = ConfigHashDrift(
            config_path="src/config.py", runspec_path="src/runspec.py"
        )
        return list(checker.check_project(tmp_path))

    def test_in_sync_fixture_passes(self, tmp_path):
        assert self.run(tmp_path, {
            "src/config.py": CONFIG_FIXTURE, "src/runspec.py": IN_SYNC,
        }) == []

    def test_deleting_an_allowlist_entry_fails(self, tmp_path):
        # the acceptance scenario: ``engine`` dropped from the constant
        # while config_hash still pops it
        missing_engine = runspec_fixture(
            "'kernel': 'order-identical by contract'",
            "    data.pop('kernel', None)\n    data.pop('engine', None)\n",
        )
        findings = self.run(tmp_path, {
            "src/config.py": CONFIG_FIXTURE, "src/runspec.py": missing_engine,
        })
        assert any(
            "'engine'" in f.message and "does not list it" in f.message
            for f in findings
        )

    def test_new_unhashed_field_fails(self, tmp_path):
        # the other acceptance scenario: a pop with no documented rationale
        extra_pop = runspec_fixture(
            "'kernel': 'order-identical by contract', "
            "'engine': 'parity-pinned against the object engine'",
            "    data.pop('kernel', None)\n    data.pop('engine', None)\n"
            "    data.pop('seed', None)\n",
        )
        findings = self.run(tmp_path, {
            "src/config.py": CONFIG_FIXTURE, "src/runspec.py": extra_pop,
        })
        assert any("'seed'" in f.message for f in findings)

    def test_allowlist_entry_without_pop_fails(self, tmp_path):
        no_engine_pop = runspec_fixture(
            "'kernel': 'order-identical by contract', "
            "'engine': 'parity-pinned against the object engine'",
            "    data.pop('kernel', None)\n",
        )
        findings = self.run(tmp_path, {
            "src/config.py": CONFIG_FIXTURE, "src/runspec.py": no_engine_pop,
        })
        assert any("still hashes it" in f.message for f in findings)

    def test_stale_exclusion_of_a_nonfield_fails(self, tmp_path):
        stale = runspec_fixture(
            "'kernel': 'order-identical by contract', "
            "'engine': 'parity-pinned against the object engine', "
            "'warp': 'no such field'",
            "    data.pop('kernel', None)\n    data.pop('engine', None)\n"
            "    data.pop('warp', None)\n",
        )
        findings = self.run(tmp_path, {
            "src/config.py": CONFIG_FIXTURE, "src/runspec.py": stale,
        })
        assert any("stale exclusion" in f.message for f in findings)

    def test_empty_rationale_fails(self, tmp_path):
        blank = runspec_fixture(
            "'kernel': '', "
            "'engine': 'parity-pinned against the object engine'",
            "    data.pop('kernel', None)\n    data.pop('engine', None)\n",
        )
        findings = self.run(tmp_path, {
            "src/config.py": CONFIG_FIXTURE, "src/runspec.py": blank,
        })
        assert any("empty rationale" in f.message for f in findings)

    def test_non_literal_pop_fails(self, tmp_path):
        dynamic = runspec_fixture(
            "'kernel': 'order-identical by contract', "
            "'engine': 'parity-pinned against the object engine'",
            "    for name in ('kernel', 'engine'):\n"
            "        data.pop(name, None)\n",
        )
        findings = self.run(tmp_path, {
            "src/config.py": CONFIG_FIXTURE, "src/runspec.py": dynamic,
        })
        assert any("non-literal" in f.message for f in findings)

    def test_live_tree_is_in_sync(self):
        assert list(ConfigHashDrift().check_project(REPO_ROOT)) == []


INIT_FIXTURE = (
    '"""pkg"""\n'
    "from pkg._version import __version__\n"
    "from pkg.mod import thing\n"
    "__all__ = ['__version__', 'thing']\n"
)
VERSION_FIXTURE = '"""version"""\n__version__ = "1.0.0"\n'
PYPROJECT_FIXTURE = '[project]\nname = "pkg"\nversion = "1.0.0"\n'


class TestExportSync:
    def run(self, tmp_path, files):
        write_tree(tmp_path, files)
        checker = ExportSync(
            init_path="src/pkg/__init__.py",
            version_path="src/pkg/_version.py",
            pyproject_path="pyproject.toml",
            version_module="pkg._version",
        )
        return list(checker.check_project(tmp_path))

    def fixture(self, **overrides):
        files = {
            "src/pkg/__init__.py": INIT_FIXTURE,
            "src/pkg/_version.py": VERSION_FIXTURE,
            "pyproject.toml": PYPROJECT_FIXTURE,
        }
        files.update(overrides)
        return files

    def test_consistent_fixture_passes(self, tmp_path):
        assert self.run(tmp_path, self.fixture()) == []

    def test_unbound_export_is_flagged(self, tmp_path):
        init = INIT_FIXTURE.replace(
            "__all__ = ['__version__', 'thing']",
            "__all__ = ['__version__', 'thing', 'ghost']",
        )
        findings = self.run(
            tmp_path, self.fixture(**{"src/pkg/__init__.py": init})
        )
        assert any("'ghost'" in f.message for f in findings)

    def test_bound_but_unexported_name_is_flagged(self, tmp_path):
        init = INIT_FIXTURE.replace(
            "__all__ = ['__version__', 'thing']",
            "__all__ = ['__version__']",
        )
        findings = self.run(
            tmp_path, self.fixture(**{"src/pkg/__init__.py": init})
        )
        assert any("missing from" in f.message for f in findings)

    def test_version_mismatch_with_pyproject_is_flagged(self, tmp_path):
        pyproject = PYPROJECT_FIXTURE.replace("1.0.0", "2.0.0")
        findings = self.run(
            tmp_path, self.fixture(**{"pyproject.toml": pyproject})
        )
        assert any("bump both together" in f.message for f in findings)

    def test_wrong_version_source_is_flagged(self, tmp_path):
        init = INIT_FIXTURE.replace(
            "from pkg._version import __version__",
            "from pkg.legacy import __version__",
        )
        findings = self.run(
            tmp_path, self.fixture(**{"src/pkg/__init__.py": init})
        )
        assert any("pkg._version" in f.message for f in findings)

    def test_duplicate_export_is_flagged(self, tmp_path):
        init = INIT_FIXTURE.replace(
            "__all__ = ['__version__', 'thing']",
            "__all__ = ['__version__', 'thing', 'thing']",
        )
        findings = self.run(
            tmp_path, self.fixture(**{"src/pkg/__init__.py": init})
        )
        assert any("twice" in f.message for f in findings)

    def test_live_export_surface_is_in_sync(self):
        assert list(ExportSync().check_project(REPO_ROOT)) == []


@pytest.mark.parametrize("checker_cls", [NoGlobalRng, NoWallclock,
                                         NoUnorderedIteration])
def test_module_rules_carry_scope_and_description(checker_cls):
    checker = checker_cls()
    assert checker.rule and checker.description
    assert checker.scope.include
