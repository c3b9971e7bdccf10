"""Discrete-event simulation substrate reproducing the paper's evaluation.

The paper's Section 5 evaluates DAC_p2p against NDAC_p2p on a 50,100-peer
simulated system over 144 hours.  This package is that simulator:

* :mod:`repro.simulation.engine` — the event queue and clock;
* :mod:`repro.simulation.randoms` — named, independently-seeded RNG streams;
* :mod:`repro.simulation.config` — :class:`SimulationConfig` with the
  paper's defaults;
* :mod:`repro.simulation.arrivals` — the four first-request arrival patterns;
* :mod:`repro.simulation.entities` — per-peer simulation state;
* :mod:`repro.simulation.registry` — the supplier population (joins and
  idle-elevation timers);
* :mod:`repro.simulation.lifecycle` — optional supplier departures and
  returns as scheduled events, graceful (``lifecycle="graceful"``) or
  mid-stream;
* :mod:`repro.simulation.requestpath` — the requesting peer's protocol
  path (probing, admission, sessions, reminders, backoff);
* :mod:`repro.simulation.samplers` — the periodic metric samplers;
* :mod:`repro.simulation.system` — the facade wiring the three
  subsystems over the shared substrates (the object engine);
* :mod:`repro.simulation.arrayengine` — the struct-of-arrays engine that
  runs every level-representable policy;
* :mod:`repro.simulation.probes` — the metrics collector behind Figures
  4–9 and Table 1: event counters plus the subscribed probes' series;
* :mod:`repro.simulation.runner` — one-call experiment execution, which
  picks the engine from the admission policy;
* :mod:`repro.simulation.trace` — optional structured event traces;
* :mod:`repro.simulation.validation` — post-run invariant audits on
  either engine.
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
