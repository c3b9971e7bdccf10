"""Discrete-event simulation substrate reproducing the paper's evaluation.

The paper's Section 5 evaluates DAC_p2p against NDAC_p2p on a 50,100-peer
simulated system over 144 hours.  This package is that simulator:

* :mod:`repro.simulation.randoms` — named, independently-seeded RNG streams;
* :mod:`repro.simulation.config` — :class:`SimulationConfig` with the
  paper's defaults;
* :mod:`repro.simulation.arrivals` — the four first-request arrival
  patterns: each one's curves and its deterministic arrival placement
  (one numpy sweep for patterns 1, 3 and 4);
* :mod:`repro.simulation.arraystate` — per-peer and per-session state as
  columns;
* :mod:`repro.simulation.arrayengine` — the engine: event queue and
  clock, supplier population and idle-elevation timers, the requesting
  peer's protocol path (probing, admission, sessions, reminders,
  backoff), lifecycle departures and the periodic metric samplers;
* :mod:`repro.simulation.lifecycle` — optional supplier departures and
  returns as scheduled events, graceful (``lifecycle="graceful"``) or
  mid-stream;
* :mod:`repro.simulation.probes` — the metrics behind Figures 4–9 and
  Table 1: the collector (per-class counters and sums the engine bumps
  inline, plus the subscribed probes' series, sampled on fixed hourly
  and 3-hourly clocks) and :class:`~repro.simulation.probes.RunMetrics`,
  the frozen results type read after the run;
* :mod:`repro.simulation.runner` — one-call experiment execution;
* :mod:`repro.simulation.trace` — optional structured event traces;
* :mod:`repro.simulation.validation` — post-run invariant audits.
"""

from repro.simulation.config import SimulationConfig
from repro.simulation.runner import SimulationResult, run_simulation

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "run_simulation",
]
