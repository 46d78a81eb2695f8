"""Unit and property tests for the storage substrate."""

import math

from hypothesis import assume, given, settings, strategies as st

from repro.crypto.digest import canonical_bytes
from repro.storage import merkle
from repro.storage.checkpoint import Checkpoint, CheckpointStore
from repro.storage.kvstore import KVStore, state_root
from repro.storage.merkle import StateTree, verify_proof


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
    st.tuples(st.just("mark")),
    st.tuples(st.just("version"), st.integers(0, 25)),
    st.tuples(st.just("forget"), st.integers(0, 25)),
)


def _proves(tree, mapping):
    """Every entry of ``mapping`` is proven against ``tree``'s root, and
    nothing else is."""
    for key in ("p/a", "p/b", "q/a", "q/b", "r"):
        found = tree.prove(key)
        if key not in mapping:
            assert found is None
            continue
        value, proof = found
        assert canonical_bytes(value) == canonical_bytes(mapping[key])
        assert verify_proof(tree.root, key, value, proof)
    return True


@settings(max_examples=400)
@given(st.lists(_OPS, max_size=25))
def test_property_incremental_root_equals_from_scratch(ops):
    """The root kept up to date over writes, and the tree of a marked
    version rebuilt after more writes, equal the root of the same
    contents built from scratch, through put, delete and restore."""
    store = KVStore()
    marked = {}          # the model: tag -> contents at the mark
    tags = 0
    for name, *args in ops:
        if name == "mark":
            tags += 1
            store.mark(tags)
            marked[tags] = store.snapshot()
        elif name == "version":
            tree = store.version(args[0])
            if args[0] in marked:
                assert tree.root == state_root(marked[args[0]])
                assert _proves(tree, marked[args[0]])
            else:
                assert tree is None
        elif name == "forget":
            store.forget(args[0])
            marked = {t: m for t, m in marked.items() if t >= args[0]}
        else:
            result = getattr(store, name)(*args)
            if name == "state_digest":
                assert result == state_root(store.snapshot())
            elif name == "restore":
                marked = {}
    assert store.state_digest() == state_root(store.snapshot())
    for tag, contents in marked.items():
        assert store.version(tag).root == state_root(contents)


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
    """A root after one overwrite hashes the key's path, its new leaf and
    the inner nodes above it: about log2(n), however large the store. A
    root that re-folded the store would hash every entry."""
    sha256 = merkle._sha256
    hashes = {}
    for size in (1_000, 20_000):
        store = KVStore()
        store.import_records({f"client/c{i}/balance": i for i in range(size)})
        store.state_digest()
        calls = []
        monkeypatch.setattr(merkle, "_sha256",
                            lambda data: calls.append(data) or sha256(data))
        assert store.state_digest() and calls == []
        store.put("client/c17/balance", -1)
        root = store.state_digest()
        hashes[size] = len(calls)
        monkeypatch.undo()
        assert root == state_root(store.snapshot())
    # The key's path, its leaf, the inner nodes above it (11 at 1 000
    # keys, 17 at 20 000: log2 n is 10.0 and 14.3, and a trie of random
    # paths is a level or two deeper than a balanced tree) and the leaves
    # beside them, whose hashes a tree does not keep.
    assert hashes == {1_000: 15, 20_000: 23}
    assert all(count < 2 * math.log2(size) for size, count in hashes.items())


# ----------------------------------------------------------------------
# Inclusion proofs
# ----------------------------------------------------------------------
_ENTRIES = {f"client/c{i}/balance": 10_000 + i for i in range(50)}


def test_every_entry_proves_and_a_missing_key_has_no_proof():
    tree = StateTree.of(_ENTRIES)
    assert tree.root == state_root(_ENTRIES)
    for key, value in _ENTRIES.items():
        proven, proof = tree.prove(key)
        assert proven == value
        assert verify_proof(tree.root, key, value, proof)
    assert tree.prove("client/c50/balance") is None
    # A single entry is its own root: no siblings, no side bits.
    alone = StateTree.of({"k": 1})
    assert alone.prove("k") == (1, b"\x00")
    assert verify_proof(alone.root, "k", 1, b"\x00")
    assert StateTree().prove("k") is None


def _flip(proof, at):
    return proof[:at] + bytes((proof[at] ^ 1,)) + proof[at + 1:]


def test_a_tampered_proof_fails():
    tree = StateTree.of(_ENTRIES)
    key = "client/c7/balance"
    value, proof = tree.prove(key)
    depth = proof[0]
    width = (depth + 7) // 8
    assert depth >= 3 and len(proof) == 1 + width + 32 * depth
    assert verify_proof(tree.root, key, value, proof)
    # The value, including one that is == to it but encodes apart.
    assert not verify_proof(tree.root, key, value + 1, proof)
    assert not verify_proof(tree.root, key, float(value), proof)
    # The key: another entry's, with its own value too.
    assert not verify_proof(tree.root, "client/c8/balance", value, proof)
    assert not verify_proof(tree.root, "client/c8/balance", 10_008, proof)
    # One sibling, one side bit, a side bit past the last level.
    assert not verify_proof(tree.root, key, value, _flip(proof, -1))
    assert not verify_proof(tree.root, key, value, _flip(proof, 1))
    if depth % 8:
        stray = proof[:width] + bytes((proof[width] | 0x80,)) \
            + proof[width + 1:]
        assert not verify_proof(tree.root, key, value, stray)
    # The length: a sibling short or over, the count left as it was, or
    # changed to match; nothing at all; not bytes.
    assert not verify_proof(tree.root, key, value, proof[:-32])
    assert not verify_proof(tree.root, key, value, proof + bytes(32))
    shorter = bytes((depth - 1,)) + proof[1:1 + width] + proof[1 + width + 32:]
    assert not verify_proof(tree.root, key, value, shorter)
    assert not verify_proof(tree.root, key, value, b"")
    assert not verify_proof(tree.root, key, value, list(proof))
    # The root of a neighbouring version.
    other = tree.updated({"client/c9/balance": 0})
    assert not verify_proof(other.root, key, value, proof)
    assert verify_proof(other.root, key, value, other.prove(key)[1])


def test_an_old_version_stays_provable_after_writes():
    store = KVStore()
    store.import_records(_ENTRIES)
    store.mark(1)
    before = store.version(1)
    store.put("client/c7/balance", -7)
    store.delete("client/c8/balance")
    store.mark(2)
    store.put("client/c7/balance", -77)
    assert store.version(2).prove("client/c7/balance")[0] == -7
    assert store.version(2).prove("client/c8/balance") is None
    assert store.version(1) is before
    value, proof = before.prove("client/c8/balance")
    assert value == 10_008 and verify_proof(before.root,
                                            "client/c8/balance", value, proof)
    store.forget(2)
    assert store.version(1) is None and store.version(2) is not None


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
