"""The state tree: one Merkle tree over a store's ``(key, value)`` entries.

Each entry is a leaf, placed by the SHA-256 of its key. The tree is the
binary trie of those 256-bit paths with every one-child chain left out,
so its shape is a function of the key set alone: one mapping has one
tree and one root, however it was reached (a restore, a migration in and
out again, writes in another order). A leaf hashes
``0x00 || canonical_bytes((key, value))`` — so ``1``, ``True`` and
``1.0`` hash apart — and an inner node ``0x01 || left || right``; the
root therefore binds every key and every value, and with them the key
set. A leaf's path is only where it sits: the proof of an entry is the
sibling hashes on the way up from its leaf, plus which side each is on.

Trees are persistent. Changing keys copies the inner nodes on their
paths and shares the rest, so an older version stays whole — and
provable — for as long as somebody holds it, at the cost of the nodes
the change replaced. A leaf is the ``(key, value)`` entry itself, and an
inner node keeps only its bit, its two sides and its hash, computed once
when a root is first asked of a tree that holds it: per entry a tree
keeps about one inner node and one hash.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from operator import itemgetter
from typing import Any, Mapping

from repro.crypto.schema import canonical_bytes

__all__ = ["ABSENT", "StateTree", "fold_proof", "leaf_hash", "state_root",
           "verify_proof"]

_sha256 = hashlib.sha256
_BITS = 256
_LAST = _BITS - 1
_LEAF = b"\x00"
_INNER = b"\x01"
_EMPTY_ROOT = _sha256(b"repro/state-root/merkle/empty").digest()
#: The value of a key a version does not hold.
ABSENT = object()


def _path(key: str) -> int:
    return int.from_bytes(_sha256(key.encode()).digest(), "big")


class _Inner:
    """Two subtrees whose leaves' paths agree above bit ``bit`` (0 is the
    top bit) and part at it. A leaf is the ``(key, value)`` entry itself,
    its hash recomputed when asked: a tree keeps one object per entry."""

    __slots__ = ("bit", "left", "right", "hash")

    def __init__(self, bit: int, left, right) -> None:
        self.bit = bit
        self.left = left
        self.right = right
        self.hash = None


def leaf_hash(key: str, value: Any) -> bytes:
    """The hash of the leaf of ``(key, value)``: where a proof starts."""
    return _sha256(_LEAF + canonical_bytes((key, value))).digest()


def _hash(node) -> bytes:
    if type(node) is not _Inner:
        return leaf_hash(*node)
    if node.hash is None:
        node.hash = _sha256(
            _INNER + _hash(node.left) + _hash(node.right)).digest()
    return node.hash


def _put(top, entry: tuple, path: int):
    """``top``'s tree with ``entry`` in it, in place of its key's: find
    the leaf nearest ``path``, and hang the entry where its path first
    parts from that leaf's (crit-bit insertion)."""
    node = top
    while type(node) is _Inner:
        node = node.right if path >> (_LAST - node.bit) & 1 else node.left
    if node is None:
        return entry
    if node[0] == entry[0]:
        if node[1] is entry[1]:
            return top
        crit = _BITS
    else:
        crit = _BITS - (path ^ _path(node[0])).bit_length()
    return _graft(top, entry, path, crit)


def _graft(node, entry: tuple, path: int, crit: int):
    """``node``'s subtree with ``entry`` hung at bit ``crit`` — at
    ``_BITS``, in place of the leaf of its key."""
    if type(node) is _Inner and node.bit < crit:
        if path >> (_LAST - node.bit) & 1:
            return _Inner(node.bit, node.left,
                          _graft(node.right, entry, path, crit))
        return _Inner(node.bit, _graft(node.left, entry, path, crit),
                      node.right)
    if crit == _BITS:
        return entry
    if path >> (_LAST - crit) & 1:
        return _Inner(crit, node, entry)
    return _Inner(crit, entry, node)


def _drop(node, key: str, path: int):
    """``node``'s subtree without ``key``."""
    if type(node) is not _Inner:
        return None if node is None or node[0] == key else node
    bit = node.bit
    if path >> (_LAST - bit) & 1:
        right = _drop(node.right, key, path)
        if right is node.right:
            return node
        return node.left if right is None \
            else _Inner(bit, node.left, right)
    left = _drop(node.left, key, path)
    if left is node.left:
        return node
    return node.right if left is None else _Inner(bit, left, node.right)


def _build(entries: list, paths: list, lo: int, hi: int):
    """The subtree of ``entries[lo:hi]``, which are sorted by path."""
    if hi - lo == 1:
        return entries[lo]
    first, last = paths[lo], paths[hi - 1]
    bit = _BITS - (first ^ last).bit_length()
    # The first path on the right side: ``last``'s bits down to ``bit``,
    # zeros after.
    shift = _LAST - bit
    mid = bisect_left(paths, last >> shift << shift, lo, hi)
    return _Inner(bit, _build(entries, paths, lo, mid),
                  _build(entries, paths, mid, hi))


class StateTree:
    """One version of a mapping as a Merkle tree; never changes."""

    __slots__ = ("_top",)

    def __init__(self, top=None) -> None:
        self._top = top

    @classmethod
    def of(cls, mapping: Mapping[str, Any]) -> "StateTree":
        """The tree of ``mapping``, built from scratch."""
        if not mapping:
            return cls()
        pairs = sorted(((_path(entry[0]), entry)
                        for entry in mapping.items()), key=itemgetter(0))
        paths = [path for path, _ in pairs]
        entries = [entry for _, entry in pairs]
        return cls(_build(entries, paths, 0, len(pairs)))

    @property
    def root(self) -> bytes:
        """The 32-byte root: what watermark and checkpoint votes sign."""
        return _EMPTY_ROOT if self._top is None else _hash(self._top)

    def updated(self, changes: Mapping[str, Any]) -> "StateTree":
        """This version with each key of ``changes`` set to its value —
        removed where the value is :data:`ABSENT`."""
        top = self._top
        for key, value in changes.items():
            if value is ABSENT:
                top = _drop(top, key, _path(key))
            else:
                top = _put(top, (key, value), _path(key))
        return StateTree(top)

    def prove(self, key: str) -> tuple[Any, bytes] | None:
        """``key``'s value here and the proof :func:`verify_proof` checks
        it with; None when this version does not hold ``key``.

        The proof is one ``bytes``: the number ``d`` of siblings, then
        ``ceil(d / 8)`` bytes of side bits (little-endian; bit ``i`` set
        when the ``i``-th node up from the leaf is a right child), then
        the ``d`` sibling hashes, lowest first.
        """
        path = _path(key)
        node = self._top
        sides = 0
        siblings = []
        while type(node) is _Inner:
            sides <<= 1
            if path >> (_LAST - node.bit) & 1:
                sibling, node = node.left, node.right
                sides |= 1
            else:
                sibling, node = node.right, node.left
            siblings.append(sibling.hash or _hash(sibling)
                            if type(sibling) is _Inner else _hash(sibling))
        if node is None or node[0] != key:
            return None
        siblings.reverse()
        depth = len(siblings)
        return node[1], (bytes((depth,))
                         + sides.to_bytes((depth + 7) // 8, "little")
                         + b"".join(siblings))


def state_root(mapping: Mapping[str, Any]) -> bytes:
    """The 32-byte root of ``mapping``, computed from scratch.

    :meth:`~repro.storage.kvstore.KVStore.state_digest` returns this for
    the store's contents; a receiver checks a shipped snapshot against
    its claimed root with it.
    """
    return StateTree.of(mapping).root


def fold_proof(leaf: bytes, proof: Any) -> bytes | None:
    """The root that ``proof`` (see :meth:`StateTree.prove`) folds the
    leaf hash ``leaf`` up to; None for a proof not of that form."""
    if type(proof) is not bytes or not proof:
        return None
    depth = proof[0]
    width = (depth + 7) // 8
    if len(proof) != 1 + width + 32 * depth:
        return None
    sides = int.from_bytes(proof[1:1 + width], "little")
    if sides >> depth:
        return None
    node = leaf
    at = 1 + width
    for i in range(depth):
        sibling = proof[at:at + 32]
        at += 32
        if sides >> i & 1:
            node = _sha256(_INNER + sibling + node).digest()
        else:
            node = _sha256(_INNER + node + sibling).digest()
    return node


def verify_proof(root: bytes, key: str, value: Any, proof: Any) -> bool:
    """Whether ``proof`` shows that the mapping whose root is ``root``
    holds ``value`` under ``key`` (see :meth:`StateTree.prove`)."""
    folded = fold_proof(leaf_hash(key, value), proof)
    return folded is not None and folded == root
