"""Experiment orchestration: declarative studies over a process pool.

* :mod:`repro.orchestration.batch` — :func:`run_batch`, the one executor
  every multi-run experiment funnels through (serial or process pool,
  config-ordered, bit-identical results);
* :mod:`repro.orchestration.runspec` — :class:`RunSpec`, a frozen,
  content-hashed description of exactly one run;
* :mod:`repro.orchestration.study` — the :class:`Study` builder
  (``Study.from_scenario("flash_crowd").protocols("dac", "ndac")
  .sweep("probe_candidates", [4, 8]).seeds(5)``), which expands any
  scenario × protocol × parameter × seed grid into specs, executes them,
  and returns a :class:`ResultSet` of JSON-serializable
  :class:`RunRecord` objects with export, filter and mean ± CI
  aggregation;
* :mod:`repro.orchestration.store` — :class:`ResultStore`, disk
  memoization of records keyed by spec hash, so repeated invocations
  skip already-computed runs;
* :mod:`repro.orchestration.shard` — crash-safe multi-host execution:
  the lease-based :class:`ClaimRegistry` claim protocol,
  :func:`shard_run` (claim and execute a slice of a study),
  :func:`merge_stores` (fold per-host stores, verifying agreement on
  overlap) and :func:`store_status` (claimed/done/orphaned census).

Protocol comparisons, parameter sweeps and seed replications are all
:class:`Study` axes; there is no separate helper for each.
"""

from repro.orchestration.batch import run_batch
from repro.orchestration.runspec import RunSpec, config_from_dict, config_to_dict
from repro.orchestration.study import (
    Aggregate,
    RecordMetrics,
    ResultSet,
    RunRecord,
    Study,
)
from repro.orchestration.store import ResultStore
from repro.orchestration.shard import (
    Claim,
    ClaimRegistry,
    MergeReport,
    ShardReport,
    StoreStatus,
    default_owner,
    merge_stores,
    shard_run,
    store_status,
)

__all__ = [
    "run_batch",
    "RunSpec",
    "config_to_dict",
    "config_from_dict",
    "Aggregate",
    "RecordMetrics",
    "ResultSet",
    "RunRecord",
    "Study",
    "ResultStore",
    # sharded execution
    "Claim",
    "ClaimRegistry",
    "MergeReport",
    "ShardReport",
    "StoreStatus",
    "default_owner",
    "merge_stores",
    "shard_run",
    "store_status",
]
