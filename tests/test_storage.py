"""Unit and property tests for the storage substrate."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import StorageError
from repro.storage.checkpoint import Checkpoint, CheckpointStore
from repro.storage.kvstore import KVStore
from repro.storage.log import CommitLog, CommitRecord


# ----------------------------------------------------------------------
# KVStore
# ----------------------------------------------------------------------
def test_kvstore_basic_ops():
    store = KVStore()
    store.put("a", 1)
    assert store.get("a") == 1
    assert "a" in store
    assert store.require("a") == 1
    store.delete("a")
    assert store.get("a") is None
    with pytest.raises(StorageError):
        store.require("a")


def test_kvstore_version_bumps_on_mutation():
    store = KVStore()
    v0 = store.version
    store.put("a", 1)
    assert store.version > v0
    v1 = store.version
    store.delete("missing")   # no-op
    assert store.version == v1


def test_kvstore_prefix_export_import_delete():
    store = KVStore()
    store.put("client/c1/balance", 10)
    store.put("client/c1/history", (1, 2))
    store.put("client/c2/balance", 5)
    exported = store.export_prefix("client/c1/")
    assert exported == {"client/c1/balance": 10, "client/c1/history": (1, 2)}
    assert store.delete_prefix("client/c1/") == 2
    assert "client/c1/balance" not in store
    other = KVStore()
    other.import_records(exported)
    assert other.get("client/c1/balance") == 10


def test_kvstore_snapshot_restore_and_digest():
    store = KVStore()
    store.put("x", 1)
    snap = store.snapshot()
    digest_before = store.state_digest()
    store.put("x", 2)
    assert store.state_digest() != digest_before
    store.restore(snap)
    assert store.get("x") == 1
    assert store.state_digest() == digest_before


def test_kvstore_keys_sorted():
    store = KVStore()
    for key in ("b", "a", "c"):
        store.put(key, 0)
    assert list(store.keys()) == ["a", "b", "c"]


@given(st.lists(st.tuples(st.sampled_from("abcde"),
                          st.integers(-100, 100)), max_size=30))
def test_property_kvstore_matches_dict(ops):
    store, model = KVStore(), {}
    for key, value in ops:
        if value < 0:
            store.delete(key)
            model.pop(key, None)
        else:
            store.put(key, value)
            model[key] = value
    assert store.snapshot() == model
    assert len(store) == len(model)


@given(st.dictionaries(st.sampled_from(["p/x", "p/y", "q/z"]),
                       st.integers(), max_size=3))
def test_property_export_import_preserves_prefix(data):
    store = KVStore()
    store.import_records(data)
    exported = store.export_prefix("p/")
    assert exported == {k: v for k, v in data.items() if k.startswith("p/")}


# ----------------------------------------------------------------------
# Logs
# ----------------------------------------------------------------------
def test_commit_log_rejects_conflicts():
    log = CommitLog()
    log.append(CommitRecord(sequence=1, request_digest=b"a", result=1, view=0))
    log.append(CommitRecord(sequence=1, request_digest=b"a", result=1, view=0))
    assert len(log) == 1
    with pytest.raises(StorageError):
        log.append(CommitRecord(sequence=1, request_digest=b"b",
                                result=2, view=0))


def test_commit_log_truncation_and_iteration():
    log = CommitLog()
    for seq in (3, 1, 2):
        log.append(CommitRecord(sequence=seq, request_digest=bytes([seq]),
                                result=None, view=0))
    assert [r.sequence for r in log] == [1, 2, 3]
    log.truncate_below(2)
    assert [r.sequence for r in log] == [3]
    assert log.low_water_mark == 2


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
def test_checkpoint_becomes_stable_at_quorum():
    store = CheckpointStore(quorum=3)
    store.record_local(Checkpoint(10, b"d", snapshot={"x": 1}))
    assert not store.vote("a", 10, b"d")
    assert not store.vote("b", 10, b"d")
    assert store.vote("c", 10, b"d")
    assert store.stable.sequence == 10
    assert store.stable.snapshot == {"x": 1}


def test_checkpoint_mismatched_digests_do_not_combine():
    store = CheckpointStore(quorum=2)
    assert not store.vote("a", 5, b"x")
    assert not store.vote("b", 5, b"y")
    assert store.stable is None


def test_checkpoint_old_votes_ignored_after_stable():
    store = CheckpointStore(quorum=2)
    store.vote("a", 10, b"d")
    store.vote("b", 10, b"d")
    assert store.stable.sequence == 10
    assert not store.vote("c", 5, b"old")
    assert store.stable.sequence == 10


def test_checkpoint_duplicate_votes_do_not_count_twice():
    store = CheckpointStore(quorum=2)
    assert not store.vote("a", 3, b"d")
    assert not store.vote("a", 3, b"d")
    assert store.stable is None
