"""Fault-injection tests: SIGKILLed workers, lease expiry, contention.

These tests exercise the crash-safety contract with *real* worker
subprocesses (see :mod:`tests.orchestration.faults`): a killed worker's
claims expire and a later shard worker completes the grid without
recomputing finished specs, producing a result set bit-identical (up to
wall time) to the serial oracle; concurrent workers over one store
execute every spec exactly once.
"""

import time

import pytest

import repro.orchestration.batch as batch
from repro.orchestration.shard import shard_run, store_status
from repro.orchestration.store import ResultStore
from repro.orchestration.study import Study

from faults import (
    drain,
    executed_hashes,
    sigkill,
    spawn_worker,
    tiny_study_params,
    wait_for,
)

SEEDS = 4


def tiny_study():
    """The subprocess workers' grid, rebuilt fresh (builders mutate)."""
    return Study.from_scenario("quickstart", scale=0.02).seeds(SEEDS)


@pytest.fixture(scope="module")
def oracle_fingerprints():
    """Serial in-process execution — the byte-equality oracle."""
    return [record.fingerprint() for record in tiny_study().run()]


def wait_until(predicate, timeout=30.0, interval=0.05):
    deadline = time.time() + timeout
    while not predicate():
        if time.time() > deadline:
            raise TimeoutError("condition never became true")
        time.sleep(interval)


class TestCrashRecovery:
    def test_sigkilled_holder_expires_and_resume_completes(
        self, tmp_path, monkeypatch, oracle_fingerprints
    ):
        store = ResultStore(tmp_path / "store")
        # Pre-seed one finished spec so "no recomputation" is observable.
        first_spec = tiny_study().specs()[0]
        Study.from_config(first_spec.config).run(store=store)
        assert len(store) == 1

        worker = spawn_worker(tiny_study_params(
            store.root, owner="doomed", mode="hold", seeds=SEEDS, lease=1.0
        ))
        try:
            wait_for(store.root / "ready-doomed")
            sigkill(worker)
        finally:
            if worker.poll() is None:
                worker.kill()
        # The kill leaves live claims behind; they must surface as
        # orphaned once the lease lapses (the pre-seeded spec has a
        # record, so it never counts as orphaned).
        wait_until(lambda: store_status(store).orphaned == SEEDS - 1)
        assert store_status(store).claimed == 0

        executed = []
        original = batch.run_simulation

        def counting(config):
            executed.append(config.master_seed)
            return original(config)

        monkeypatch.setattr(batch, "run_simulation", counting)
        shard_run(tiny_study(), store, owner="medic")
        resumed = tiny_study().collect(store)
        assert [r.fingerprint() for r in resumed] == oracle_fingerprints
        # Only the orphaned specs were recomputed, never the cached one.
        assert len(executed) == SEEDS - 1
        assert first_spec.config.master_seed not in executed
        status = store_status(store, tiny_study())
        assert (status.done, status.claimed, status.orphaned, status.pending) \
            == (SEEDS, 0, 0, 0)

    def test_worker_killed_mid_execution_loses_nothing(
        self, tmp_path, monkeypatch, oracle_fingerprints
    ):
        store = ResultStore(tmp_path / "store")
        params = tiny_study_params(
            store.root, owner="victim", mode="run", seeds=SEEDS, lease=1.0
        )
        worker = spawn_worker(params)
        log = store.root / "exec-log-victim.txt"
        try:
            # Kill while the worker is actually executing the grid: at
            # least one spec done, the rest in flight or unclaimed.
            wait_for(log)
            sigkill(worker)
        finally:
            if worker.poll() is None:
                worker.kill()
        survived = executed_hashes(log)
        assert survived  # the log marker implied at least one completion
        # Wait out any lease the victim still held, then resume.
        wait_until(lambda: store_status(store).claimed == 0)

        executed = []
        original = batch.run_simulation

        def counting(config):
            executed.append(config)
            return original(config)

        monkeypatch.setattr(batch, "run_simulation", counting)
        shard_run(tiny_study(), store, owner="medic")
        resumed = tiny_study().collect(store)
        assert [r.fingerprint() for r in resumed] == oracle_fingerprints
        # Specs the victim completed (logged => stored) were not rerun.
        spec_hash_by_config = {
            spec.spec_hash: spec.config for spec in tiny_study().specs()
        }
        recomputed = {
            spec_hash for spec_hash, config in spec_hash_by_config.items()
            if config in executed
        }
        assert recomputed.isdisjoint(survived)


class TestClaimContention:
    def test_two_workers_execute_every_spec_exactly_once(
        self, tmp_path, oracle_fingerprints
    ):
        store = ResultStore(tmp_path / "store")
        barrier = tmp_path / "start"
        workers = [
            spawn_worker(tiny_study_params(
                store.root, owner=owner, mode="run", seeds=SEEDS,
                lease=60.0, start_barrier=barrier,
            ))
            for owner in ("alpha", "beta")
        ]
        try:
            barrier.write_text("", encoding="utf-8")
            for worker in workers:
                drain(worker)
        finally:
            for worker in workers:
                if worker.poll() is None:
                    worker.kill()
        logs = [
            executed_hashes(store.root / f"exec-log-{owner}.txt")
            for owner in ("alpha", "beta")
        ]
        combined = logs[0] + logs[1]
        expected = {spec.spec_hash for spec in tiny_study().specs()}
        # No spec executed twice, none dropped.
        assert len(combined) == len(set(combined))
        assert set(combined) == expected
        # And the cooperative result is byte-identical to the oracle.
        collected = tiny_study().collect(store)
        assert [r.fingerprint() for r in collected] == oracle_fingerprints
