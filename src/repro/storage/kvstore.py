"""In-memory key-value store with an incrementally maintained state root.

Each node replicates its zone's client data in one of these stores (the
paper's prototype uses a key-value store per node). Keys are strings;
values are any canonically-encodable object and are never mutated in
place (a changed value is ``put`` again). Whole key-prefix ranges can be
exported/imported to support the data migration protocol (client records
``R(c)`` live under a per-client prefix).

The state root commits to the *mapping*, not to how it was reached. Each
entry hashes to a leaf of 1024 16-bit lanes and the leaves are summed
lane-wise (LtHash, Bellare-Micciancio): the sum is the same in any order,
an entry is taken out by subtracting its leaf, and finding two mappings
with one sum is a lattice problem, which a 256-bit XOR or sum of entry
hashes is not (generalised birthday). The root is SHA-256 over a domain
tag, the entry count and the sum. Writes only note the value a key had at
the last root; :meth:`KVStore.state_digest` moves the sum by those keys.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterator, Mapping

from repro.crypto.digest import canonical_bytes

__all__ = ["KVStore", "state_root"]

_LANES = 1024
_LEAF_BYTES = 2 * _LANES
_ROOT_TAG = b"repro/state-root/lthash-16x1024/v1"
#: The lanes are summed as two Python ints, even and odd lanes apart, each
#: lane in the low half of a 32-bit cell so a carry stops short of the next.
_LOW = int.from_bytes(b"\xff\xff\x00\x00" * (_LANES // 2), "little")
#: Bit 16 of every cell: lent to each lane before a subtraction.
_GUARD = int.from_bytes(b"\x00\x00\x01\x00" * (_LANES // 2), "little")
_EMPTY = (0, 0)
#: "The key had no value" in ``KVStore._dirty``.
_ABSENT = object()


def _lanes(entry: bytes) -> tuple[int, int]:
    """The leaf of one canonically encoded ``(key, value)`` entry."""
    leaf = int.from_bytes(hashlib.shake_256(entry).digest(_LEAF_BYTES),
                          "little")
    return leaf & _LOW, (leaf >> 16) & _LOW


def _add(total: tuple[int, int], entry: bytes) -> tuple[int, int]:
    even, odd = _lanes(entry)
    return (total[0] + even) & _LOW, (total[1] + odd) & _LOW


def _subtract(total: tuple[int, int], entry: bytes) -> tuple[int, int]:
    even, odd = _lanes(entry)
    return ((total[0] | _GUARD) - even) & _LOW, \
        ((total[1] | _GUARD) - odd) & _LOW


def _seal(count: int, total: tuple[int, int]) -> bytes:
    lanes = (total[0] | total[1] << 16).to_bytes(_LEAF_BYTES, "little")
    return hashlib.sha256(_ROOT_TAG + count.to_bytes(8, "big") + lanes).digest()


def state_root(mapping: Mapping[str, Any]) -> bytes:
    """The 32-byte root of ``mapping``, computed from scratch.

    :meth:`KVStore.state_digest` returns this for the store's contents;
    a receiver checks a shipped snapshot against its claimed root with it.
    """
    total = _EMPTY
    for entry in mapping.items():
        total = _add(total, canonical_bytes(entry))
    return _seal(len(mapping), total)


class KVStore:
    """A deterministic in-memory KV store that knows its state root."""

    def __init__(self) -> None:
        self._data: dict[str, Any] = {}
        #: Lane sums over the entries as they stood at the last root.
        self._total = _EMPTY
        #: Keys written since then -> the value they had (or ``_ABSENT``).
        self._dirty: dict[str, Any] = {}

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def get(self, key: str, default: Any = None) -> Any:
        """Return the value for ``key`` or ``default``."""
        return self._data.get(key, default)

    def put(self, key: str, value: Any) -> None:
        """Insert or overwrite ``key``."""
        data = self._data
        self._dirty.setdefault(key, data.get(key, _ABSENT))
        data[key] = value

    def delete(self, key: str) -> None:
        """Remove ``key`` if present (idempotent)."""
        if key in self._data:
            self._dirty.setdefault(key, self._data.pop(key))

    def keys(self) -> Iterator[str]:
        """Iterate keys in sorted (deterministic) order."""
        return iter(sorted(self._data))

    # ------------------------------------------------------------------
    # Prefix operations (client records R(c) live under a prefix)
    # ------------------------------------------------------------------
    def export_prefix(self, prefix: str) -> dict[str, Any]:
        """Copy out every entry whose key starts with ``prefix``."""
        return {k: v for k, v in self._data.items() if k.startswith(prefix)}

    def import_records(self, records: dict[str, Any]) -> None:
        """Bulk-insert records (used when appending a migrated state)."""
        for key, value in records.items():
            self.put(key, value)

    def delete_prefix(self, prefix: str) -> int:
        """Delete every entry under ``prefix``; returns the count removed."""
        doomed = [k for k in self._data if k.startswith(prefix)]
        for key in doomed:
            self.delete(key)
        return len(doomed)

    # ------------------------------------------------------------------
    # Snapshots and the state root (checkpointing / lazy synchronization)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Return a shallow copy of the full state."""
        return dict(self._data)

    def restore(self, snapshot: dict[str, Any]) -> None:
        """Replace the full state with ``snapshot``."""
        self._data = dict(snapshot)
        # Every key is new to an empty sum: the next root folds them all.
        self._total = _EMPTY
        self._dirty = dict.fromkeys(snapshot, _ABSENT)

    def state_digest(self) -> bytes:
        """``state_root`` of the contents, at the cost of the keys written
        since the last call (what checkpoint votes and read watermarks
        sign)."""
        total, data = self._total, self._data
        for key, old in self._dirty.items():
            new = data.get(key, _ABSENT)
            if new is old:
                continue
            # Compared as encoded: ``1 == True`` but they hash apart.
            before = None if old is _ABSENT else canonical_bytes((key, old))
            after = None if new is _ABSENT else canonical_bytes((key, new))
            if before == after:
                continue
            if before is not None:
                total = _subtract(total, before)
            if after is not None:
                total = _add(total, after)
        self._total = total
        self._dirty.clear()
        return _seal(len(data), total)
