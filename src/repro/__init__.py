"""repro — a full reproduction of *On Peer-to-Peer Media Streaming*.

Xu, Hefeeda, Hambrusch, Bhargava (ICDCS 2002) studied two problems in
peer-to-peer media streaming with heterogeneous peer bandwidth:

1. **Media data assignment** — Algorithm ``OTS_p2p`` distributes a CBR
   stream's segments over multiple supplying peers so the requesting peer
   sees the provably minimum buffering delay (``n·δt`` for ``n`` suppliers).
2. **Fast capacity amplification** — Protocol ``DAC_p2p`` is a distributed
   differentiated admission control scheme (probability vectors, idle
   elevation, reminders, exponential backoff) that grows total streaming
   capacity quickly and rewards peers for pledging more out-bound bandwidth.

This package implements both, every substrate they need (discrete-event
simulator, Napster-style directory and a Chord DHT, streaming/playback
models), the paper's baselines, and a benchmark harness regenerating every
figure and table of the paper's evaluation.

Quickstart
----------
>>> from repro import SimulationConfig, run_simulation
>>> result = run_simulation(SimulationConfig().scaled(0.02))
>>> result.metrics.final_capacity() > 0
True

See ``examples/quickstart.py`` for a guided tour,
``docs/ARCHITECTURE.md`` for the module-by-module map to paper sections,
and ``docs/EXPERIMENTS.md`` for the CLI reference with one recipe per
paper figure/table.
"""

from repro.core.model import ClassLadder, Peer, PeerRole, SupplierOffer
from repro.core.assignment import (
    Assignment,
    contiguous_assignment,
    ots_assignment,
    round_robin_assignment,
    sweep_assignment,
)
from repro.core.schedule import (
    TransmissionSchedule,
    min_start_delay_slots,
    verify_continuous_playback,
)
from repro.core.theorems import theorem1_min_delay_slots
from repro.core.admission import AdmissionVector, SupplierAdmissionState
from repro.core.capacity import CapacityLedger, max_capacity_sessions
from repro.streaming.media import MediaFile
from repro.streaming.session import ActiveSession, StreamingSession, plan_session
from repro._version import __version__
from repro.orchestration.batch import run_batch
from repro.orchestration.runspec import RunSpec
from repro.orchestration.study import ResultSet, RunRecord, Study
from repro.orchestration.store import ResultStore
from repro.orchestration.shard import (
    ClaimRegistry,
    merge_stores,
    shard_run,
    store_status,
)
from repro.scenarios import Scenario, get_scenario, scenario_names
from repro.simulation.config import SimulationConfig
from repro.simulation.lifecycle import (
    LIFECYCLE_NAMES,
    RECOVERY_MODES,
    LifecycleDynamics,
    LifecycleModel,
    make_lifecycle,
)
from repro.simulation.probes import MetricsPipeline, Probe
from repro.simulation.runner import SimulationResult, run_simulation
from repro.simulation.system import StreamingSystem
from repro.analysis.experiments import run_experiment

__all__ = [
    "__version__",
    # core model
    "ClassLadder",
    "Peer",
    "PeerRole",
    "SupplierOffer",
    # OTS_p2p and baselines
    "Assignment",
    "ots_assignment",
    "sweep_assignment",
    "contiguous_assignment",
    "round_robin_assignment",
    "TransmissionSchedule",
    "min_start_delay_slots",
    "verify_continuous_playback",
    "theorem1_min_delay_slots",
    # DAC_p2p mechanics
    "AdmissionVector",
    "SupplierAdmissionState",
    # capacity
    "CapacityLedger",
    "max_capacity_sessions",
    # streaming
    "MediaFile",
    "StreamingSession",
    "ActiveSession",
    "plan_session",
    # simulation
    "SimulationConfig",
    "StreamingSystem",
    "SimulationResult",
    "run_simulation",
    # metric probes
    "MetricsPipeline",
    "Probe",
    # session-lifecycle dynamics
    "LifecycleModel",
    "LifecycleDynamics",
    "make_lifecycle",
    "LIFECYCLE_NAMES",
    "RECOVERY_MODES",
    # scenarios and orchestration
    "Scenario",
    "get_scenario",
    "scenario_names",
    "run_batch",
    # studies: declarative grids, records, caching
    "Study",
    "RunSpec",
    "RunRecord",
    "ResultSet",
    "ResultStore",
    # sharded, crash-safe execution
    "ClaimRegistry",
    "shard_run",
    "merge_stores",
    "store_status",
    # paper experiments
    "run_experiment",
]
