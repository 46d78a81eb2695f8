"""In-memory key-value store with an incrementally maintained state root.

Each node replicates its zone's client data in one of these stores (the
paper's prototype uses a key-value store per node). Keys are strings;
values are any canonically-encodable object and are never mutated in
place (a changed value is ``put`` again). Whole key-prefix ranges can be
exported/imported to support the data migration protocol (client records
``R(c)`` live under a per-client prefix).

The state root is the root of a :class:`~repro.storage.merkle.StateTree`
over the entries. Writes do no hashing: they only note the value a key
had at the last root, and :meth:`KVStore.state_digest` brings the tree up
to date over those keys. A store that serves reads from past versions
also *marks* them (:meth:`KVStore.mark`) and keeps, per mark, what the
writes made since then overwrote, so that :meth:`KVStore.version` can
rebuild the tree of a marked version until :meth:`KVStore.forget` lets
it go.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.storage.merkle import ABSENT, StateTree, state_root

__all__ = ["KVStore", "state_root"]


class KVStore:
    """A deterministic in-memory KV store that knows its state root."""

    def __init__(self) -> None:
        self._data: dict[str, Any] = {}
        #: The tree of the contents at the last root (None: none yet).
        self._tree: StateTree | None = None
        #: Keys written since then -> the value they had (or ``ABSENT``).
        self._dirty: dict[str, Any] = {}
        #: Marked versions, oldest first: tag -> each key written after
        #: the mark (and before the next) -> the value it had at the mark.
        self._marks: dict[Any, dict[str, Any]] = {}
        #: The newest mark's entry, while writes go on being kept.
        self._since_mark: dict[str, Any] | None = None
        #: Trees of marked versions, once built.
        self._versions: dict[Any, StateTree] = {}

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
        old = data.get(key, ABSENT)
        self._dirty.setdefault(key, old)
        if self._since_mark is not None:
            self._since_mark.setdefault(key, old)
        data[key] = value

    def delete(self, key: str) -> None:
        """Remove ``key`` if present (idempotent)."""
        if key in self._data:
            old = self._data.pop(key)
            self._dirty.setdefault(key, old)
            if self._since_mark is not None:
                self._since_mark.setdefault(key, old)

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
        """Replace the full state with ``snapshot``; every marked version
        goes with the state it was marked in."""
        self._data = dict(snapshot)
        self._tree = None
        self._dirty = {}
        self._marks = {}
        self._since_mark = None
        self._versions = {}

    def _current(self) -> StateTree:
        """The tree of the contents, at the cost of the keys written since
        the last root (all of them the first time)."""
        data = self._data
        if self._tree is None:
            self._tree = StateTree.of(data)
        elif self._dirty:
            self._tree = self._tree.updated({
                key: new for key, old in self._dirty.items()
                if (new := data.get(key, ABSENT)) is not old})
        self._dirty = {}
        return self._tree

    def state_digest(self) -> bytes:
        """``state_root`` of the contents (what checkpoint votes sign)."""
        return self._current().root

    # ------------------------------------------------------------------
    # Marked versions (the certified read path serves from them)
    # ------------------------------------------------------------------
    def mark(self, tag: Any) -> None:
        """Name the contents as they stand now version ``tag``; tags only
        grow. No hashing: from here on a write keeps the value it
        overwrote, until :meth:`forget` lets the mark go."""
        self._since_mark = self._marks[tag] = {}

    def version(self, tag: Any) -> StateTree | None:
        """The tree of version ``tag`` — None if it was never marked, or
        was forgotten. Built once: from the current tree, with every key
        written since the mark put back to the value it had then."""
        marks = self._marks
        if tag not in marks:
            return None
        tree = self._versions.get(tag)
        if tree is None:
            before: dict[str, Any] = {}
            for later in reversed(marks):
                before.update(marks[later])
                if later == tag:
                    break
            tree = self._current()
            if before:
                tree = tree.updated(before)
            self._versions[tag] = tree
        return tree

    def forget(self, tag: Any) -> None:
        """Let go of every version marked before ``tag``."""
        for older in [m for m in self._marks if m < tag]:
            del self._marks[older]
            self._versions.pop(older, None)
