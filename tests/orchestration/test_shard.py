"""Unit and integration tests for crash-safe sharded execution.

Covers the claim-lease state machine (with an injectable clock, so no
test sleeps), slice partitioning, the shard → merge → collect pipeline
against the serial oracle, the status census, and the batch executor's
failure labeling.
"""

import dataclasses
import os

import pytest

import repro.orchestration.batch as batch
from repro.errors import (
    BatchWorkerError,
    ClaimError,
    ConfigurationError,
    StoreMergeError,
)
from repro.orchestration.batch import run_batch
from repro.orchestration.shard import (
    ClaimRegistry,
    _slice_specs,
    merge_stores,
    shard_run,
    store_status,
)
from repro.orchestration.store import ResultStore
from repro.orchestration.study import Study
from repro.simulation.config import SimulationConfig


def small_config(**overrides):
    defaults = dict(
        seed_suppliers={1: 2},
        requesting_peers={1: 2, 2: 2, 3: 8, 4: 8},
        arrival_pattern=1,
        master_seed=31,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def small_study(seeds=4):
    return Study.from_config(small_config()).seeds(seeds)


class FakeClock:
    """A controllable wall clock for lease state-machine tests."""

    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


HASH = "a" * 64


@pytest.fixture()
def registry_pair(tmp_path):
    """Two workers' views of one claim directory, sharing a fake clock."""
    clock = FakeClock()
    make = lambda owner: ClaimRegistry(  # noqa: E731
        tmp_path / "claims", owner=owner, lease_seconds=10.0, clock=clock
    )
    return make("alice"), make("bob"), clock


class TestClaimStateMachine:
    def test_fresh_claim_succeeds_once(self, registry_pair):
        alice, bob, _ = registry_pair
        assert alice.try_claim(HASH)
        assert not bob.try_claim(HASH)
        assert alice.holder(HASH) == "alice"

    def test_same_owner_reclaim_renews(self, registry_pair):
        alice, _, clock = registry_pair
        assert alice.try_claim(HASH)
        first_deadline = alice.get(HASH).deadline
        clock.advance(5.0)
        assert alice.try_claim(HASH)  # idempotent: renews, still held
        assert alice.get(HASH).deadline > first_deadline

    def test_expiry_makes_the_claim_reclaimable(self, registry_pair):
        alice, bob, clock = registry_pair
        assert alice.try_claim(HASH)
        clock.advance(9.9)
        assert not bob.try_claim(HASH)  # still leased
        clock.advance(0.2)  # past the 10 s lease
        assert alice.holder(HASH) is None
        assert bob.try_claim(HASH)
        assert bob.holder(HASH) == "bob"

    def test_complete_is_terminal(self, registry_pair):
        alice, bob, clock = registry_pair
        assert alice.try_claim(HASH)
        assert alice.complete(HASH)
        assert alice.get(HASH).state == "completed"
        clock.advance(100.0)  # completed markers never expire
        assert not bob.try_claim(HASH)
        assert not alice.try_claim(HASH)
        assert bob.holder(HASH) is None

    def test_full_cycle_claim_expire_reclaim_complete(self, registry_pair):
        alice, bob, clock = registry_pair
        assert alice.try_claim(HASH)  # claim
        clock.advance(11.0)  # expire
        assert bob.try_claim(HASH)  # reclaim
        assert bob.complete(HASH)  # complete
        # The original owner's late completion attempt is refused: the
        # marker already records bob's completion.
        assert not alice.complete(HASH)
        assert alice.get(HASH).owner == "bob"

    def test_late_complete_defers_to_live_reclaimer(self, registry_pair):
        alice, bob, clock = registry_pair
        assert alice.try_claim(HASH)
        clock.advance(11.0)
        assert bob.try_claim(HASH)
        # alice finishes her (now orphaned) computation late: she must
        # not stomp bob's live claim.
        assert not alice.complete(HASH)
        assert bob.holder(HASH) == "bob"

    def test_renew_requires_ownership(self, registry_pair):
        alice, bob, _ = registry_pair
        assert alice.try_claim(HASH)
        with pytest.raises(ClaimError):
            bob.renew(HASH)

    def test_release_drops_the_claim(self, registry_pair):
        alice, bob, _ = registry_pair
        assert alice.try_claim(HASH)
        alice.release(HASH)
        assert bob.try_claim(HASH)

    def test_release_requires_ownership(self, registry_pair):
        alice, bob, _ = registry_pair
        assert alice.try_claim(HASH)
        with pytest.raises(ClaimError):
            bob.release(HASH)

    def test_corrupt_claim_reads_as_unclaimed(self, registry_pair):
        alice, bob, _ = registry_pair
        assert alice.try_claim(HASH)
        alice.path_for(HASH).write_text("{not json", encoding="utf-8")
        assert bob.get(HASH) is None
        assert bob.try_claim(HASH)

    def test_lease_must_be_positive(self, tmp_path):
        with pytest.raises(ClaimError):
            ClaimRegistry(tmp_path, owner="x", lease_seconds=0.0)

    @pytest.mark.parametrize(
        "read, expected",
        [
            (lambda registry: registry.get(HASH), None),
            (lambda registry: registry.holder(HASH), None),
            (lambda registry: registry.spec_hashes(), []),
            (lambda registry: registry.release(HASH), None),
        ],
        ids=["get", "holder", "spec_hashes", "release"],
    )
    def test_reads_on_a_missing_root_create_nothing(
        self, registry_pair, read, expected
    ):
        alice, _, _ = registry_pair
        assert read(alice) == expected
        assert not alice.root.exists()

    def test_first_claim_creates_the_root(self, registry_pair):
        alice, bob, _ = registry_pair
        assert not alice.root.exists()
        assert alice.try_claim(HASH)
        assert bob.spec_hashes() == [HASH]

    def test_completing_an_unclaimed_spec_creates_the_root(self, registry_pair):
        alice, bob, _ = registry_pair
        assert not alice.root.exists()
        assert alice.complete(HASH)
        assert bob.get(HASH).state == "completed"


class TestSlices:
    def test_slices_partition_the_spec_list(self):
        specs = small_study(seeds=5).specs()
        parts = [_slice_specs(specs, i, 2) for i in range(2)]
        assert [s.spec_hash for s in parts[0]] + \
            [s.spec_hash for s in parts[1]] != []
        recombined = sorted(
            s.spec_hash for part in parts for s in part
        )
        assert recombined == sorted(s.spec_hash for s in specs)
        assert len(parts[0]) == 3 and len(parts[1]) == 2

    def test_invalid_slices_rejected(self):
        specs = small_study().specs()
        with pytest.raises(ClaimError):
            _slice_specs(specs, 2, 2)
        with pytest.raises(ClaimError):
            _slice_specs(specs, 0, 0)


class TestShardMergeCollect:
    def test_two_shards_merge_to_the_serial_oracle(self, tmp_path):
        oracle = [r.fingerprint() for r in small_study().run()]
        stores = [ResultStore(tmp_path / name) for name in ("a", "b")]
        for index, store in enumerate(stores):
            report = shard_run(
                small_study(), store,
                owner=f"host{index}", slice_index=index, slice_count=2,
            )
            assert report.executed == 2
            assert report.cached == report.claimed_elsewhere == 0
        merged = ResultStore(tmp_path / "merged")
        report = merge_stores(merged, stores)
        assert report.copied == 4 and report.total == 4
        collected = small_study().collect(merged)
        assert [r.fingerprint() for r in collected] == oracle

    def test_shared_store_shards_cooperate(self, tmp_path):
        store = ResultStore(tmp_path / "shared")
        first = shard_run(small_study(), store, owner="w0")
        second = shard_run(small_study(), store, owner="w1")
        assert first.executed == 4
        assert second.executed == 0 and second.cached == 4
        assert len(store) == 4

    def test_live_foreign_claims_are_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "shared")
        specs = small_study().specs()
        claims = ClaimRegistry.for_store(store, owner="other")
        claims.try_claim(specs[0].spec_hash)
        report = shard_run(small_study(), store, owner="me")
        assert report.claimed_elsewhere == 1
        assert report.executed == len(specs) - 1

    def test_expired_claims_are_reclaimed(self, tmp_path):
        clock = FakeClock()
        store = ResultStore(tmp_path / "shared")
        specs = small_study().specs()
        dead = ClaimRegistry.for_store(
            store, owner="dead", lease_seconds=5.0, clock=clock
        )
        for spec in specs:
            dead.try_claim(spec.spec_hash)
        clock.advance(6.0)
        report = shard_run(
            small_study(), store, owner="medic", clock=clock,
            lease_seconds=5.0,
        )
        assert report.executed == len(specs)
        assert report.reclaimed == len(specs)

    def test_a_failed_wave_releases_its_claims(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "shared")
        original = batch.run_simulation

        def explode(config):
            raise RuntimeError("boom")

        monkeypatch.setattr(batch, "run_simulation", explode)
        with pytest.raises(BatchWorkerError):
            shard_run(small_study(), store, owner="crashed", jobs=1)
        assert store_status(store, small_study()).claimed == 0
        # another worker takes the whole wave at once, not after the leases
        monkeypatch.setattr(batch, "run_simulation", original)
        report = shard_run(small_study(), store, owner="next", jobs=1)
        assert report.executed == len(small_study().specs())
        assert report.claimed_elsewhere == 0

    def test_a_failed_wave_keeps_claims_reclaimed_meanwhile(
        self, tmp_path, monkeypatch
    ):
        clock = FakeClock()
        store = ResultStore(tmp_path / "shared")
        specs = small_study().specs()
        medic = ClaimRegistry.for_store(
            store, owner="medic", lease_seconds=5.0, clock=clock
        )

        def outlive_the_lease(config):
            clock.advance(6.0)
            for spec in specs:
                medic.try_claim(spec.spec_hash)
            raise RuntimeError("boom")

        monkeypatch.setattr(batch, "run_simulation", outlive_the_lease)
        # the batch's own error, not a ClaimError from the release
        with pytest.raises(BatchWorkerError):
            shard_run(
                small_study(), store, owner="slow", jobs=1, clock=clock,
                lease_seconds=5.0,
            )
        assert all(medic.holder(spec.spec_hash) == "medic" for spec in specs)

    def test_merge_is_idempotent(self, tmp_path):
        source = ResultStore(tmp_path / "src")
        shard_run(small_study(seeds=2), source, owner="w")
        merged = ResultStore(tmp_path / "merged")
        merge_stores(merged, [source])
        before = {
            h: merged.path_for(h).read_bytes() for h in merged.spec_hashes()
        }
        report = merge_stores(merged, [source])
        assert report.copied == 0 and report.identical == 2
        after = {
            h: merged.path_for(h).read_bytes() for h in merged.spec_hashes()
        }
        assert before == after

    def test_merge_refuses_disagreeing_records(self, tmp_path):
        source = ResultStore(tmp_path / "src")
        record = Study.from_config(small_config()).run(store=source)[0]
        tampered = ResultStore(tmp_path / "tampered")
        tampered.put(dataclasses.replace(
            record, scalars={**record.scalars, "final_capacity": -1.0}
        ))
        merged = ResultStore(tmp_path / "merged")
        merge_stores(merged, [source])
        with pytest.raises(StoreMergeError, match="determinism violation"):
            merge_stores(merged, [tampered])

    def test_merge_names_both_versions_of_cross_release_records(
        self, tmp_path
    ):
        merged = ResultStore(tmp_path / "merged")
        record = Study.from_config(small_config()).run(store=merged)[0]
        older = ResultStore(tmp_path / "older")
        older.put(dataclasses.replace(record, version="1.4.0"))
        with pytest.raises(StoreMergeError) as excinfo:
            merge_stores(merged, [older])
        message = str(excinfo.value)
        assert "1.4.0" in message and record.version in message
        assert "determinism violation" not in message

    def test_collect_raises_on_gaps(self, tmp_path):
        store = ResultStore(tmp_path / "partial")
        shard_run(
            small_study(), store, owner="w", slice_index=0, slice_count=2
        )
        with pytest.raises(ConfigurationError, match="missing 2 of 4"):
            small_study().collect(store)

    def test_status_counts_all_states(self, tmp_path):
        clock = FakeClock()
        store = ResultStore(tmp_path / "store")
        specs = small_study().specs()
        # one done
        Study.from_config(specs[0].config).run(store=store)
        claims = ClaimRegistry.for_store(
            store, owner="w", lease_seconds=10.0, clock=clock
        )
        claims.try_claim(specs[1].spec_hash)  # one live claim
        stale = ClaimRegistry.for_store(
            store, owner="gone", lease_seconds=1.0, clock=clock
        )
        stale.try_claim(specs[2].spec_hash)
        clock.advance(2.0)  # ... which expires -> orphaned
        status = store_status(store, small_study(), clock=clock)
        assert status.done == 1
        assert status.claimed == 1
        assert status.orphaned == 1
        assert status.pending == 2  # the orphan plus the never-touched spec
        assert status.total_specs == 4
        assert "1 done" in status.summary()

    def test_status_writes_nothing_into_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        before = sorted(store.root.rglob("*"))
        assert store_status(store, small_study()).pending == 4
        assert sorted(store.root.rglob("*")) == before


class TestBatchFailureLabeling:
    def test_serial_failure_names_the_config(self, monkeypatch):
        configs = [small_config(master_seed=s) for s in (1, 2)]

        def explode(config):
            if config.master_seed == 2:
                raise RuntimeError("boom")
            return object()

        monkeypatch.setattr(batch, "run_simulation", explode)
        with pytest.raises(BatchWorkerError) as excinfo:
            run_batch(configs, labels=["first", "second"])
        assert excinfo.value.index == 1
        assert "second" in str(excinfo.value)
        assert "boom" in str(excinfo.value)

    def test_default_label_sketches_protocol_and_seed(self, monkeypatch):
        def explode(config):
            raise RuntimeError("boom")

        monkeypatch.setattr(batch, "run_simulation", explode)
        with pytest.raises(BatchWorkerError) as excinfo:
            run_batch([small_config(master_seed=7)])
        assert "seed=7" in str(excinfo.value)


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="worker-death tests need fork workers"
)
class TestWorkerDeath:
    """Pool workers dying (os._exit — no exception, no cleanup).

    With the ``fork`` start method the children inherit the parent's
    monkeypatched ``batch.run_simulation``, so the kill switch can live
    in the test.
    """

    def test_pool_survives_a_worker_death(self, tmp_path, monkeypatch):
        configs = [small_config(master_seed=s) for s in (1, 2, 3, 4)]
        sentinel = tmp_path / "already-died"
        original = batch.run_simulation

        def die_once(config):
            if config.master_seed == 3 and not sentinel.exists():
                sentinel.write_text("", encoding="utf-8")
                os._exit(17)
            return original(config)

        monkeypatch.setattr(batch, "run_simulation", die_once)
        results = run_batch(configs, jobs=2)
        assert len(results) == len(configs)
        assert all(result is not None for result in results)
        assert sentinel.exists()  # the death actually happened

    def test_persistent_worker_death_names_the_culprit(self, monkeypatch):
        configs = [small_config(master_seed=s) for s in (1, 2, 3)]

        def always_die(config):
            if config.master_seed == 2:
                os._exit(17)
            return object()

        monkeypatch.setattr(batch, "run_simulation", always_die)
        with pytest.raises(BatchWorkerError) as excinfo:
            run_batch(configs, jobs=2, labels=["a", "culprit", "c"])
        assert excinfo.value.index == 1
        assert "culprit" in str(excinfo.value)

    def test_culprit_is_named_every_time_in_a_wide_batch(self, monkeypatch):
        """Whenever the pool breaks, only the worker killer is ever named.

        The dying worker may take bystanders' chunks down with it, or
        break the pool before every chunk is submitted.  Neither may
        blame a bystander or escape as a bare ``BrokenProcessPool``.
        """
        configs = [small_config(master_seed=s) for s in range(1, 9)]
        labels = [f"seed-{s}" for s in range(1, 9)]

        def kill_on_seed_2(config):
            if config.master_seed == 2:
                os._exit(17)
            return object()

        monkeypatch.setattr(batch, "run_simulation", kill_on_seed_2)
        for _ in range(40):
            with pytest.raises(BatchWorkerError) as excinfo:
                run_batch(configs, jobs=2, labels=labels)
            assert excinfo.value.index == 1
            assert "seed-2" in str(excinfo.value)
