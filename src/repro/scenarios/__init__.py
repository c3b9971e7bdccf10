"""Named, declarative simulation workloads.

* :mod:`repro.scenarios.scenario` — the frozen :class:`Scenario`: a name,
  a description and the :class:`~repro.simulation.config.SimulationConfig`
  fields where the workload departs from the paper's setup;
* :mod:`repro.scenarios.catalog` — the name → scenario registry and the
  builtin workloads (the paper's four arrival patterns plus churn,
  asymmetric-population, DHT and flaky-network extensions), registered
  on import.

>>> from repro.scenarios import get_scenario
>>> config = get_scenario("flash_crowd").build_config(scale=0.02)
>>> config.arrival_pattern
3
"""

from repro.scenarios.scenario import Scenario
from repro.scenarios.catalog import (
    BUILTIN_SCENARIOS,
    all_scenarios,
    get_scenario,
    register,
    scenario_names,
)

__all__ = [
    "Scenario",
    "register",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
    "BUILTIN_SCENARIOS",
]
