"""Array-engine seams: lazy imports, slotted hot-path classes, session slots.

The engine's behaviour on whole runs is pinned by
``tests/simulation/test_golden.py``, and its arrival times by
``tests/simulation/test_arrivals.py``; these tests cover the seams where
an off-by-one would hide: the session table's slot recycling, and which
modules a run loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.simulation.arrayengine import ArrayEngine
from repro.simulation.arrivals import LOCKSTEP_MIN_ARRIVALS
from repro.simulation.arraystate import PeerArrays, SessionTable


SRC = Path(__file__).resolve().parents[2] / "src"

_NUMPY_PROBE = """
import sys
import repro
assert "numpy" not in sys.modules, "import repro loaded numpy"
requesters = int(sys.argv[2])
overrides = {
    "requesting_peers": {4: requesters},
    # one hour, which keeps a run of this many requesters short
    "arrival_window_seconds": 3600.0,
    "horizon_seconds": 3600.0,
} if requesters else {}
config = repro.get_scenario(sys.argv[1]).build_config(scale=0.02, **overrides)
assert sum(repro.run_simulation(config).metrics.admitted.values()) > 0
print("numpy" in sys.modules)
"""


@pytest.mark.parametrize(
    "scenario_name, requesters, loads_numpy",
    [
        # at 0.02 (requesters 0: the scenario's own), every scenario places
        # fewer than LOCKSTEP_MIN_ARRIVALS arrivals
        ("constant", 0, False),  # pattern 1
        ("paper_default", 0, False),  # pattern 2
        ("unstable_suppliers_100k", 0, False),  # pattern 2, with lifecycle
        ("flash_crowd", 0, False),  # pattern 3
        ("diurnal", 0, False),  # pattern 4
        ("constant", LOCKSTEP_MIN_ARRIVALS, True),
        ("paper_default", LOCKSTEP_MIN_ARRIVALS, False),
        ("flash_crowd", LOCKSTEP_MIN_ARRIVALS, True),
        ("diurnal", LOCKSTEP_MIN_ARRIVALS, True),
    ],
)
def test_numpy_loads_only_for_vectorized_arrivals(
    scenario_name, requesters, loads_numpy
):
    """A fresh interpreter imports numpy only to vectorize arrival times.

    Deterministic patterns 1, 3 and 4 place ``LOCKSTEP_MIN_ARRIVALS``
    arrivals or more in one numpy sweep; fewer, or any number on pattern
    2, are bisected in scalar Python.  Peak memory of the runs below that
    size, the lifecycle-memory check's among them, depends on numpy
    staying out.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH") else str(SRC)
    )
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, scenario_name, str(requesters)],
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


@pytest.mark.parametrize(
    "cls", [ArrayEngine, PeerArrays, SessionTable], ids=lambda cls: cls.__name__
)
def test_hot_path_classes_declare_slots(cls):
    """Classes touched on every event declare ``__slots__``.

    ``@dataclass(slots=True)`` satisfies this too: it puts ``__slots__``
    in the class namespace.
    """
    assert "__slots__" in vars(cls)


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

