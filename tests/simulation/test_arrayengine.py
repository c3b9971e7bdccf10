"""Array-engine seams: lazy imports, vectorized arrivals, session slots.

The engine's behaviour on whole runs is pinned by
``tests/simulation/test_golden.py``; these tests cover the seams where an
off-by-one would hide: the bit-identical vectorized arrival times, the
session table's slot recycling, and which modules a run loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.simulation.arrivals import generate_arrival_times, make_pattern
from repro.simulation.arraystate import (
    VECTORIZABLE_PATTERNS,
    SessionTable,
    vectorized_arrival_times,
)


SRC = Path(__file__).resolve().parents[2] / "src"

_NUMPY_PROBE = """
import sys
import repro
assert "numpy" not in sys.modules, "import repro loaded numpy"
config = repro.get_scenario(sys.argv[1]).build_config(scale=0.02)
assert sum(repro.run_simulation(config).metrics.admitted.values()) > 0
print("numpy" in sys.modules)
"""


@pytest.mark.parametrize(
    "scenario_name, loads_numpy",
    [("paper_default", False), ("constant", True)],
)
def test_numpy_loads_only_for_vectorized_arrivals(scenario_name, loads_numpy):
    """A fresh interpreter imports numpy only to vectorize arrival times.

    ``paper_default`` (pattern 2) places arrivals with the scalar path;
    ``constant`` (pattern 1) takes the vectorized one.  Peak memory of
    pattern-2 runs depends on numpy staying out.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH") else str(SRC)
    )
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, scenario_name],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == str(loads_numpy)


_POOL_PROBE = """
import sys
import repro
pool_modules = ("concurrent.futures.process", "multiprocessing")
config = repro.get_scenario("quickstart").build_config(scale=0.02)
repro.run_simulation(config)
assert not any(m in sys.modules for m in pool_modules), "serial run loaded the pool"
repro.Study.from_scenario("quickstart", scale=0.02).protocols("dac", "ndac").run(jobs=2)
print(all(m in sys.modules for m in pool_modules))
"""


def test_process_pool_loads_only_for_parallel_runs():
    """``import repro`` and a serial run leave the process pool unloaded.

    Importing ``concurrent.futures.process`` pulls in ``multiprocessing``,
    a cost every fresh interpreter would otherwise pay at import time.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH") else str(SRC)
    )
    result = subprocess.run(
        [sys.executable, "-c", _POOL_PROBE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "True"


class TestVectorizedArrivals:
    @pytest.mark.parametrize("pattern_id", VECTORIZABLE_PATTERNS)
    @pytest.mark.parametrize("window", [3600.0, 77777.5, 259200.0])
    def test_bit_identical_to_scalar_quantiles(self, pattern_id, window):
        for total in (1, 7, 250):
            pattern = make_pattern(pattern_id, window)
            scalar = generate_arrival_times(pattern, total, deterministic=True)
            vector = vectorized_arrival_times(pattern_id, window, total)
            assert vector == scalar  # exact float equality, on purpose

    def test_triangle_pattern_has_no_vectorized_path(self):
        # pattern 2's cumulative uses ``**``, whose libm path differs in
        # the last ulp between numpy and CPython — so it must refuse
        assert 2 not in VECTORIZABLE_PATTERNS
        with pytest.raises(ConfigurationError, match="pattern 2"):
            vectorized_arrival_times(2, 3600.0, 10)

    def test_empty_population(self):
        assert vectorized_arrival_times(1, 3600.0, 0) == []

    @pytest.mark.parametrize("pattern_id", [1, 2, 3, 4])
    def test_deterministic_times_closure_matches_quantile(self, pattern_id):
        # the inlined-bisection fast path every pattern factory ships
        # must equal the generic quantile bisection bit-for-bit
        pattern = make_pattern(pattern_id, 259200.0)
        for total in (1, 7, 100):
            fast = pattern.deterministic_times(total)
            slow = [pattern.quantile((i + 0.5) / total) for i in range(total)]
            assert fast == slow


class TestSessionTable:
    def test_alloc_grows_then_recycles_lifo(self):
        table = SessionTable()
        first = table.alloc(10, (1, 2), 5.0, 60.0)
        second = table.alloc(11, (3,), 6.0, 60.0)
        third = table.alloc(12, (4,), 7.0, 60.0)
        assert (first, second, third) == (0, 1, 2)
        table.release(first)
        table.release(third)
        # LIFO: most recently freed slot is handed out first
        assert table.alloc(20, (5,), 8.0, 30.0) == third
        assert table.alloc(21, (6,), 9.0, 30.0) == first
        # high-water mark: no column ever shrank
        assert len(table) == 3
        assert table.free_slots == []

    def test_release_bumps_generation_and_drops_suppliers(self):
        table = SessionTable()
        slot = table.alloc(7, (1, 2, 3), 0.0, 120.0)
        generation = table.generation[slot]
        table.release(slot)
        assert table.generation[slot] == generation + 1
        assert table.suppliers[slot] == ()
        # a recycled slot starts with fresh bookkeeping
        table.interruptions[slot] = 99  # stale garbage from the old tenant
        table.alloc(8, (4,), 1.0, 60.0)
        assert table.interruptions[slot] == 0
        assert table.interrupted_at[slot] is None
        assert table.recovery_attempts[slot] == 0
        assert table.stall_seconds[slot] == 0.0

    def test_generation_distinguishes_stale_events(self):
        # the engine's (slot, generation) pairs cancel scheduled session
        # ends: after release + realloc, an event carrying the old
        # generation must not match
        table = SessionTable()
        slot = table.alloc(1, (2,), 0.0, 60.0)
        stale = (slot, table.generation[slot])
        table.release(slot)
        table.alloc(3, (4,), 1.0, 60.0)
        assert table.generation[slot] != stale[1]

