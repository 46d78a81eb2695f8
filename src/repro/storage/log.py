"""Ordered log of committed transactions.

Replicas keep it for replies, retransmission, and checkpoint garbage
collection. The paper also has nodes log every sent and received message
(Algorithms 1–2); here that record is the instrumentation bus, whose
``net.msg`` / ``proc.handled`` tallies count them by payload type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import StorageError

__all__ = ["CommitLog", "CommitRecord"]


@dataclass(frozen=True)
class CommitRecord:
    """One committed transaction in a replica's ordered log."""

    sequence: int
    request_digest: bytes
    result: Any
    view: int


class CommitLog:
    """Ordered log of committed transactions keyed by sequence number."""

    def __init__(self) -> None:
        self._records: dict[int, CommitRecord] = {}
        self._low_water_mark = 0

    @property
    def low_water_mark(self) -> int:
        """Sequences at or below this mark have been garbage collected."""
        return self._low_water_mark

    def __len__(self) -> int:
        return len(self._records)

    def append(self, record: CommitRecord) -> None:
        """Record a committed transaction; re-commits must be identical."""
        existing = self._records.get(record.sequence)
        if existing is not None:
            if existing.request_digest != record.request_digest:
                raise StorageError(
                    f"conflicting commit at sequence {record.sequence}"
                )
            return
        self._records[record.sequence] = record

    def get(self, sequence: int) -> CommitRecord | None:
        """Return the commit record at ``sequence`` if retained."""
        return self._records.get(sequence)

    def __iter__(self) -> Iterator[CommitRecord]:
        for sequence in sorted(self._records):
            yield self._records[sequence]

    def truncate_below(self, sequence: int) -> None:
        """Garbage-collect records with sequence <= ``sequence``."""
        doomed = [s for s in self._records if s <= sequence]
        for s in doomed:
            del self._records[s]
        self._low_water_mark = max(self._low_water_mark, sequence)
