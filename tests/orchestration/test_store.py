"""Tests for the on-disk result store (cache hit/miss semantics)."""

import dataclasses
import json
import threading
from pathlib import Path

import pytest

import repro.orchestration.batch as batch
from repro.orchestration.store import ResultStore
from repro.orchestration.study import Study
from repro.simulation.config import SimulationConfig


def small_config(**overrides):
    defaults = dict(
        seed_suppliers={1: 2},
        requesting_peers={1: 2, 2: 2, 3: 8, 4: 8},
        arrival_pattern=1,
        master_seed=21,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


class TestStoreBasics:
    def test_round_trip(self, store):
        record = Study.from_config(small_config()).run(store=store)[0]
        loaded = store.get(record.spec_hash)
        assert loaded is not None
        assert loaded.fingerprint() == record.fingerprint()
        assert loaded.wall_seconds == record.wall_seconds
        assert loaded.result is None

    def test_missing_hash_is_a_miss(self, store):
        assert store.get("0" * 64) is None
        assert "0" * 64 not in store

    def test_corrupt_file_is_a_miss(self, store):
        record = Study.from_config(small_config()).run(store=store)[0]
        store.path_for(record.spec_hash).write_text("{not json", encoding="utf-8")
        assert store.get(record.spec_hash) is None

    def test_malformed_record_payload_is_a_miss(self, store):
        # Valid JSON, valid schema tag, wrong inner types: still a miss.
        record = Study.from_config(small_config()).run(store=store)[0]
        path = store.path_for(record.spec_hash)
        payload = json.loads(path.read_text())
        payload["record"]["scalars"] = [1, 2]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get(record.spec_hash) is None

    def test_schema_mismatch_is_a_miss(self, store):
        record = Study.from_config(small_config()).run(store=store)[0]
        path = store.path_for(record.spec_hash)
        payload = json.loads(path.read_text())
        payload["store_schema"] = 999
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get(record.spec_hash) is None

    def test_version_mismatch_is_a_miss(self, store):
        record = Study.from_config(small_config()).run(store=store)[0]
        path = store.path_for(record.spec_hash)
        payload = json.loads(path.read_text())
        payload["record"]["version"] = "0.0.0"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get(record.spec_hash) is None
        permissive = ResultStore(store.root, require_version=None)
        assert permissive.get(record.spec_hash) is not None

    def test_len_contains_clear(self, store):
        result_set = Study.from_config(small_config()).seeds(2).run(store=store)
        assert len(store) == 2
        assert all(record.spec_hash in store for record in result_set)
        assert store.spec_hashes() == sorted(
            record.spec_hash for record in result_set
        )
        assert store.clear() == 2
        assert len(store) == 0

    def test_a_put_between_another_puts_write_and_rename(
        self, store, monkeypatch
    ):
        # two workers finishing one spec: the second writer's whole put
        # runs after the first wrote its temp file and before it renamed it
        record = Study.from_config(small_config()).run()[0]
        rename = Path.replace
        writers = []
        errors = []

        def second_writer():
            try:
                store.put(record)
            except Exception as exc:  # asserted absent below
                errors.append(exc)

        def interleaved_replace(self, target):
            if not writers:
                writer = threading.Thread(target=second_writer)
                writers.append(writer)
                writer.start()
                writer.join(timeout=30)
                assert not writer.is_alive()
            return rename(self, target)

        monkeypatch.setattr(Path, "replace", interleaved_replace)
        store.put(record)
        assert errors == []
        assert store.spec_hashes() == [record.spec_hash]
        assert store.get(record.spec_hash).fingerprint() == record.fingerprint()
        assert sorted(p.name for p in store.root.iterdir()) == [
            f"{record.spec_hash}.json"
        ]

    def test_a_writer_killed_before_its_rename_leaves_no_record(
        self, store, monkeypatch
    ):
        # the staged file outlives its writer, but never reads as a record
        record = Study.from_config(small_config()).run()[0]
        rename = Path.replace

        def killed(self, target):
            raise OSError("writer died before its rename")

        monkeypatch.setattr(Path, "replace", killed)
        with pytest.raises(OSError, match="before its rename"):
            store.put(record)
        [staged] = store.root.iterdir()
        assert staged.name.endswith(".tmp")
        assert len(store) == 0
        assert store.spec_hashes() == []
        assert record.spec_hash not in store
        assert store.get(record.spec_hash) is None
        assert store.clear() == 0

        monkeypatch.setattr(Path, "replace", rename)
        store.put(record)
        assert store.spec_hashes() == [record.spec_hash]


class TestCacheSemantics:
    def test_second_run_is_simulation_free(self, store, monkeypatch):
        study = Study.from_config(small_config()).protocols("dac", "ndac")
        first = study.run(store=store)

        def explode(config):
            raise AssertionError("cache miss: simulation executed")

        monkeypatch.setattr(batch, "run_simulation", explode)
        second = study.run(store=store)
        assert [r.fingerprint() for r in second] == [
            r.fingerprint() for r in first
        ]

    def test_partial_hit_runs_only_the_gap(self, store):
        Study.from_config(small_config()).protocols("dac").run(store=store)
        assert len(store) == 1
        calls = []
        original = batch.run_simulation

        def counting(config):
            calls.append(config.protocol)
            return original(config)

        batch.run_simulation = counting
        try:
            Study.from_config(small_config()).protocols("dac", "ndac").run(
                store=store
            )
        finally:
            batch.run_simulation = original
        assert calls == ["ndac"]
        assert len(store) == 2

    def test_cached_record_rebinds_to_new_study_axes(self, store):
        Study.from_config(small_config()).run(store=store)
        result_set = (
            Study.from_config(small_config()).protocols("dac").run(store=store)
        )
        record = result_set[0]
        assert record.result is None  # served from cache
        assert record.axes == (("protocol", "dac"),)

    def test_identical_configs_share_cache_entries(self, store):
        config = small_config()
        Study.from_config(config).run(store=store)
        relabeled = dataclasses.replace(config)  # equal content, new object
        cached = Study.from_config(relabeled).run(store=store)[0]
        assert cached.result is None
