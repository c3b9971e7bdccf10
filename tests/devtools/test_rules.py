"""Every detlint rule: at least one flagging and one passing fixture.

Each rule gets parsed source snippets; its default scope is checked
against repository-relative paths.
"""

import ast
from pathlib import Path

import pytest

from repro.devtools.staticcheck.framework import ModuleSource, parse_suppressions
from repro.devtools.staticcheck.rules import (
    NoGlobalRng,
    NoUnorderedIteration,
    NoWallclock,
)


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


@pytest.mark.parametrize("checker_cls", [NoGlobalRng, NoWallclock,
                                         NoUnorderedIteration])
def test_module_rules_carry_scope_and_description(checker_cls):
    checker = checker_cls()
    assert checker.rule and checker.description
    assert checker.scope.include
