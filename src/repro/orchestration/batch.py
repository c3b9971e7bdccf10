"""``run_batch`` — one fault-tolerant executor for every multi-run experiment.

Replications, protocol comparisons and parameter sweeps are all "run k
independent configs, keep the results in order".  :func:`run_batch` is
that one primitive:

* ``jobs=1`` (the default) runs serially in-process — bit-identical to
  calling :func:`~repro.simulation.runner.run_simulation` in a loop, so
  regression baselines and cached results stay valid;
* ``jobs>1`` fans the configs out over a :class:`ProcessPoolExecutor`
  in contiguous chunks.  Configs are picklable frozen dataclasses and
  workers return the
  :class:`~repro.simulation.runner.SimulationResult`, whose
  :class:`~repro.simulation.probes.RunMetrics` pickles as its export
  payload alone, so results are byte-equal to the serial path — only
  wall time changes.

Fault tolerance: a dead worker (OOM kill, SIGKILL, interpreter abort)
used to surface as a bare ``BrokenProcessPool`` that lost the whole
batch and named no culprit.  Now the surviving chunks' results are
kept and every unfinished config reruns alone in its own single-worker
pool; a config that breaks ``DEFAULT_RETRIES`` pools in which it ran
alone raises :class:`~repro.errors.BatchWorkerError` naming the config's
index and label.  A bystander never shares such a pool with the
culprit, so it is never blamed.  Deterministic in-simulation exceptions
are wrapped the same way (chained to the original), so every failure
mode identifies its grid point.

Determinism guarantees, both modes:

* result order == config order (results are reassembled by index);
* every run's RNG streams derive only from its own config's
  ``master_seed``, so seed-pairing across protocols/sweep points is
  exactly as in serial execution;
* requeued configs recompute byte-identical results (runs are
  deterministic), so retries never change what the batch returns.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from contextlib import ExitStack
from typing import TYPE_CHECKING

from repro.errors import BatchWorkerError
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import SimulationResult, run_simulation

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = ["run_batch"]

#: fresh pools a config may break before it is declared the culprit
DEFAULT_RETRIES = 2

#: configs tagged with their batch index, run by one worker call
Chunk = list[tuple[int, SimulationConfig]]


class _WorkerFailure(Exception):
    """Pickle-safe envelope for an exception raised inside a worker.

    Carries the failing config's batch index and the original
    exception's ``repr`` (the exception object itself may not pickle).
    """

    def __init__(self, index: int, reason: str) -> None:
        super().__init__(index, reason)
        self.index = index
        self.reason = reason


def _run_chunk(chunk: Chunk) -> list[tuple[int, SimulationResult]]:
    """Worker body: run one chunk, tagging results (and failures) by index.

    ``run_simulation`` is resolved as a module global at call time, in
    the worker — with fork-start workers the child inherits the parent's
    module state, so both execution paths run the same callable.
    """
    out: list[tuple[int, SimulationResult]] = []
    for index, config in chunk:
        try:
            out.append((index, run_simulation(config)))
        except Exception as exc:
            raise _WorkerFailure(index, repr(exc)) from exc
    return out


def _label_for(index: int, labels: Sequence[str] | None,
               config: SimulationConfig) -> str:
    """The config's study label when given, else a protocol/seed sketch."""
    if labels is not None and index < len(labels):
        return labels[index]
    return f"{config.protocol} seed={config.master_seed}"


def run_batch(
    configs: Iterable[SimulationConfig],
    jobs: int = 1,
    labels: Sequence[str] | None = None,
) -> list[SimulationResult]:
    """Run every config; results come back in config order.

    ``jobs`` is the maximum number of worker processes; ``1`` means
    serial in-process execution (no pool, no pickling).  The pool never
    holds more workers than configs.  ``labels`` (parallel to
    ``configs``) names grid points in failure messages.  A config that
    breaks :data:`DEFAULT_RETRIES` fresh pools raises
    :class:`~repro.errors.BatchWorkerError`.
    """
    config_list: Sequence[SimulationConfig] = list(configs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(config_list) <= 1:
        results: list[SimulationResult] = []
        for index, config in enumerate(config_list):
            try:
                results.append(run_simulation(config))
            except Exception as exc:
                raise BatchWorkerError(
                    index, _label_for(index, labels, config), repr(exc)
                ) from exc
        return results
    return _run_pooled(config_list, jobs, labels)


def _run_pooled(
    config_list: Sequence[SimulationConfig],
    jobs: int,
    labels: Sequence[str] | None,
) -> list[SimulationResult]:
    """Pool execution that survives worker death and names the culprit.

    The first round runs contiguous chunks in one shared pool.  When a
    worker dies there the whole pool breaks, and nothing tells which
    config killed it, so nobody is charged: every config without a
    result becomes a suspect.  Retry rounds run each suspect alone in
    its own single-worker pool, ``workers`` pools at a time.  A pool
    that breaks there was broken by its one config, which is charged an
    attempt; the config charged :data:`DEFAULT_RETRIES` times is the
    culprit.
    """
    # imported here, not at module level: the pool machinery loads
    # multiprocessing, which a serial run never needs
    from concurrent.futures import ProcessPoolExecutor

    workers = min(jobs, len(config_list))
    # Batch tasks so a large grid (hundreds of specs) does not pay one
    # round of pickling/IPC per run; results carry their index, so any
    # chunk layout reassembles in config order.
    chunksize = max(1, len(config_list) // workers)
    indexed = list(enumerate(config_list))
    chunks = [
        indexed[start:start + chunksize]
        for start in range(0, len(indexed), chunksize)
    ]
    slots: list[SimulationResult | None] = [None] * len(config_list)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        tasks = [(pool, chunk) for chunk in chunks]
        broken = _drain(tasks, slots, labels, config_list)
    suspects = [item for chunk in broken for item in chunk]
    attempts = [0] * len(config_list)
    while suspects:
        wave, suspects = suspects[:workers], suspects[workers:]
        with ExitStack() as stack:
            tasks = [
                (stack.enter_context(ProcessPoolExecutor(max_workers=1)), [item])
                for item in wave
            ]
            broken = _drain(tasks, slots, labels, config_list)
        for [(index, config)] in broken:
            attempts[index] += 1
            if attempts[index] >= DEFAULT_RETRIES:
                raise BatchWorkerError(
                    index,
                    _label_for(index, labels, config),
                    f"worker process died in {attempts[index]} pools in "
                    "which this config ran alone; it is the culprit",
                )
            suspects.append((index, config))
    return slots  # type: ignore[return-value]  # every slot is filled


def _drain(
    tasks: Sequence[tuple[ProcessPoolExecutor, Chunk]],
    slots: list[SimulationResult | None],
    labels: Sequence[str] | None,
    config_list: Sequence[SimulationConfig],
) -> list[Chunk]:
    """Run each ``(pool, chunk)`` task, filling ``slots`` with results.

    Returns the chunks that did not finish because their pool broke,
    whether it broke before the chunk was submitted or while it ran, in
    config order.  An exception inside a simulation is raised as
    :class:`~repro.errors.BatchWorkerError` naming its config.
    """
    from concurrent.futures import FIRST_EXCEPTION, wait
    from concurrent.futures.process import BrokenProcessPool

    futures = {}
    broken: list[Chunk] = []
    for pool, chunk in tasks:
        try:
            futures[pool.submit(_run_chunk, chunk)] = chunk
        except BrokenProcessPool:
            broken.append(chunk)
    # Collect eagerly: a broken pool fails every outstanding future, but
    # chunks that already finished keep their results.
    pending = set(futures)
    while pending:
        done, pending = wait(pending, return_when=FIRST_EXCEPTION)
        for future in done:
            try:
                for index, result in future.result():
                    slots[index] = result
            except _WorkerFailure as failure:
                index = failure.index
                raise BatchWorkerError(
                    index,
                    _label_for(index, labels, config_list[index]),
                    failure.reason,
                ) from failure
            except BrokenProcessPool:
                broken.append(futures[future])
    broken.sort(key=lambda chunk: chunk[0][0])
    return broken
