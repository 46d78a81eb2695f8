"""Bounded ring-buffer flight recorder for post-mortem event dumps.

Chaos runs (and monitor-only bench points) keep ``recording`` off — the
full trace tier would cost memory proportional to the run. The flight
recorder fills the forensic gap at ~zero cost: a fixed-capacity ring of
the *last N* bus events, overwritten in place, that is dumped as a
deterministic JSONL snapshot only when something actually goes wrong
(a chaos scenario diverges from its declared expectation, or a caller
decides the conformance monitor's violations warrant a dump).

A dump's lines are :mod:`repro.obs.export`'s event records in its
canonical JSON (sorted keys, compact separators, 6-digit rounded
timestamps), so one seeded run always
produces byte-identical dump files — the same determinism contract the
resilience report pins.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.obs.export import canonical_json, event_record

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Fixed-size ring of the most recent instrumentation-bus events."""

    __slots__ = ("capacity", "total", "_ring", "_next")

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError(f"flight-recorder capacity must be > 0: "
                             f"{capacity}")
        self.capacity = capacity
        #: Events ever offered (dumps report how many were overwritten).
        self.total = 0
        self._ring: list[tuple] = [None] * capacity  # type: ignore[list-item]
        self._next = 0

    def __len__(self) -> int:
        return min(self.total, self.capacity)

    def record(self, ts: float, kind: str, node: str,
               fields: dict[str, Any]) -> None:
        """Append one event, overwriting the oldest once full."""
        self._ring[self._next] = (ts, kind, node, fields)
        self._next = (self._next + 1) % self.capacity
        self.total += 1

    def snapshot(self) -> list[dict[str, Any]]:
        """The retained events, oldest first, as exporter-shaped dicts."""
        if self.total >= self.capacity:
            ordered = self._ring[self._next:] + self._ring[:self._next]
        else:
            ordered = self._ring[:self._next]
        return [event_record(*entry) for entry in ordered]

    def dump_jsonl(self, path: str | Path, **meta: Any) -> Path:
        """Write the retained events as JSONL; returns the path.

        The first line is a ``meta`` header carrying the ring geometry
        (capacity, total offered, overwritten count) plus any caller
        context (scenario name, seed, dump reason).
        """
        path = Path(path)
        events = self.snapshot()
        header = {"type": "meta", "format": "repro-flight", "version": 1,
                  "capacity": self.capacity, "events": len(events),
                  "total": self.total,
                  "overwritten": max(0, self.total - self.capacity)}
        header.update(meta)
        lines = [canonical_json(header)]
        lines.extend(canonical_json(record) for record in events)
        path.write_text("\n".join(lines) + "\n")
        return path
