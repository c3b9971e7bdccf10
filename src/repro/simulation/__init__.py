"""Discrete-event simulation substrate reproducing the paper's evaluation.

The paper's Section 5 evaluates DAC_p2p against NDAC_p2p on a 50,100-peer
simulated system over 144 hours.  This package is that simulator:

* :mod:`repro.simulation.engine` — the event queue and clock;
* :mod:`repro.simulation.randoms` — named, independently-seeded RNG streams;
* :mod:`repro.simulation.config` — :class:`SimulationConfig` with the
  paper's defaults;
* :mod:`repro.simulation.arrivals` — the four first-request arrival patterns;
* :mod:`repro.simulation.churn` — optional peer up/down availability;
* :mod:`repro.simulation.entities` — per-peer simulation state;
* :mod:`repro.simulation.registry` — the supplier population (joins,
  churn, idle-elevation timers);
* :mod:`repro.simulation.requestpath` — the requesting peer's protocol
  path (probing, admission, sessions, reminders, backoff);
* :mod:`repro.simulation.samplers` — the periodic metric samplers;
* :mod:`repro.simulation.system` — the facade wiring the three
  subsystems over the shared substrates;
* :mod:`repro.simulation.probes` — the metric probes behind Figures 4–9
  and Table 1;
* :mod:`repro.simulation.runner` — one-call experiment execution;
* :mod:`repro.simulation.trace` — optional structured event traces.
"""

from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulator
from repro.simulation.registry import SupplierRegistry
from repro.simulation.requestpath import RequestPath
from repro.simulation.runner import SimulationResult, run_simulation
from repro.simulation.samplers import Samplers
from repro.simulation.system import StreamingSystem

__all__ = [
    "SimulationConfig",
    "Simulator",
    "StreamingSystem",
    "SupplierRegistry",
    "RequestPath",
    "Samplers",
    "SimulationResult",
    "run_simulation",
]
