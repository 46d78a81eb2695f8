"""Unit and property tests for the storage substrate."""

from hypothesis import assume, given, settings, strategies as st

from repro.storage import kvstore
from repro.storage.checkpoint import Checkpoint, CheckpointStore
from repro.storage.kvstore import KVStore, state_root


# ----------------------------------------------------------------------
# KVStore
# ----------------------------------------------------------------------
def test_kvstore_basic_ops():
    store = KVStore()
    store.put("a", 1)
    assert store.get("a") == 1
    assert "a" in store
    store.delete("a")
    assert store.get("a") is None
    assert "a" not in store


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
# State root
# ----------------------------------------------------------------------
_KEYS = st.sampled_from(["p/a", "p/b", "q/a", "q/b", "r"])
# Values that compare equal but encode apart (1, True, 1.0) are the ones
# an ``==`` shortcut in the fold would get wrong.
_VALUES = st.one_of(st.integers(-2, 2), st.booleans(), st.none(),
                    st.sampled_from([0.0, 1.0, "", "x", b"x"]),
                    st.tuples(st.integers(0, 1), st.booleans()))
_MAPPINGS = st.dictionaries(_KEYS, _VALUES, max_size=5)
_OPS = st.one_of(
    st.tuples(st.just("put"), _KEYS, _VALUES),
    st.tuples(st.just("delete"), _KEYS),
    st.tuples(st.just("import_records"), _MAPPINGS),
    st.tuples(st.just("delete_prefix"), st.sampled_from(["p/", "q/", ""])),
    st.tuples(st.just("restore"), _MAPPINGS),
    st.tuples(st.just("state_digest")),
)


@settings(max_examples=400)
@given(st.lists(_OPS, max_size=25))
def test_property_incremental_root_equals_from_scratch(ops):
    store = KVStore()
    for name, *args in ops:
        result = getattr(store, name)(*args)
        if name == "state_digest":
            assert result == state_root(store.snapshot())
    assert store.state_digest() == state_root(store.snapshot())


@settings(max_examples=300)
@given(_MAPPINGS, st.data())
def test_property_root_is_history_independent(mapping, data):
    direct = KVStore()
    direct.import_records(mapping)
    # Same contents by another road: other values first, a root taken on
    # the way, another order, a key that comes and goes.
    detour = KVStore()
    for key in mapping:
        detour.put(key, "junk")
    detour.put("gone", 1)
    detour.state_digest()
    for key, value in data.draw(st.permutations(list(mapping.items()))):
        detour.put(key, value)
    detour.delete("gone")
    assert direct.state_digest() == detour.state_digest() \
        == state_root(mapping)


@settings(max_examples=300)
@given(st.dictionaries(_KEYS, st.integers(), min_size=2, max_size=5),
       st.data())
def test_property_root_binds_every_key_and_value(mapping, data):
    a, b = data.draw(st.permutations(sorted(mapping)))[:2]
    assume(mapping[a] != mapping[b])
    changes = [
        lambda s: s.put(a, mapping[a] + 1),
        lambda s: s.put("extra", 0),
        lambda s: s.delete(a),
        lambda s: s.import_records({a: mapping[b], b: mapping[a]}),
    ]
    for change in changes:
        store = KVStore()
        store.import_records(mapping)
        root = store.state_digest()
        assert root == state_root(mapping)
        change(store)
        assert store.state_digest() == state_root(store.snapshot()) != root


@given(_MAPPINGS, _KEYS, _VALUES)
def test_property_put_back_between_roots_keeps_the_root(mapping, key, other):
    store = KVStore()
    store.import_records(mapping)
    root = store.state_digest()
    store.put(key, other)
    if key in mapping:
        store.put(key, mapping[key])
    else:
        store.delete(key)
    assert store.state_digest() == root


def test_root_of_equal_but_differently_typed_values_differs():
    assert len({state_root({"k": v}) for v in (1, True, 1.0)}) == 3
    store = KVStore()
    store.put("k", 1)
    store.state_digest()
    store.put("k", True)
    assert store.state_digest() == state_root({"k": True})


def test_state_digest_work_is_the_keys_changed_not_the_store(monkeypatch):
    # One overwrite costs two leaves (the old entry out, the new one in)
    # whatever the store's size: a root that re-folds the store costs
    # one leaf per key.
    lanes = kvstore._lanes
    for size in (1_000, 20_000):
        store = KVStore()
        store.import_records({f"client/c{i}/balance": i for i in range(size)})
        store.state_digest()
        leaves = []
        monkeypatch.setattr(kvstore, "_lanes",
                            lambda entry: leaves.append(entry) or lanes(entry))
        assert store.state_digest() and leaves == []
        store.put("client/c17/balance", -1)
        root = store.state_digest()
        assert len(leaves) == 2
        monkeypatch.undo()
        assert root == state_root(store.snapshot())


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
