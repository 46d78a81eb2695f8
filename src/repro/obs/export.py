"""Deterministic trace export: JSONL and Chrome ``trace_event`` JSON.

JSONL layout (one JSON object per line, compact separators, sorted keys —
byte-identical across runs of the same seeded experiment):

1. a ``meta`` header line (carrying ``end_ms`` when the run recorded it),
2. an optional ``topology`` line (zone/cluster membership) so offline
   audits can rebuild the conformance monitor's maps,
3. every trace event in emission order (``{"type": "event", ...}``),
4. every closed span in close order (``{"type": "span", ...}``),
5. a ``summary`` trailer with counters, type counters, and histogram
   snapshots.

The Chrome format wraps the same spans as complete (``"ph": "X"``) events
and point events as instants (``"ph": "i"``), with one trace "thread" per
node — load the file at https://ui.perfetto.dev or chrome://tracing.

This module owns the trace's bytes: :func:`canonical_json` is the one
encoding every report, trace and dump uses, :func:`event_record` /
:func:`span_record` are the one shape of a trace line (the flight
recorder and the causal analyzer build theirs here too), and
:func:`read_trace` is the one parser of an exported trace.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:
    from repro.obs.bus import Instrumentation
    from repro.obs.events import Span

__all__ = ["canonical_json", "event_record", "span_record", "read_trace",
           "trace_jsonl", "write_trace_jsonl", "chrome_trace",
           "write_chrome_trace"]


def canonical_json(obj: Any) -> str:
    """Canonical compact JSON: sorted keys, no spaces, ``str`` for what
    JSON lacks — byte-stable for a fixed seed."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=str)


def event_record(ts: float, kind: str, node: str,
                 fields: dict[str, Any]) -> dict[str, Any]:
    """One trace event as its JSONL line holds it (6-digit timestamp)."""
    record = {"type": "event", "ts": round(ts, 6), "kind": kind,
              "node": node}
    record.update(fields)
    return record


def span_record(span: Span) -> dict[str, Any]:
    """One closed span as its JSONL line holds it."""
    record = {"type": "span", "phase": span.phase, "key": span.key,
              "node": span.node, "start": round(span.start_ms, 6),
              "end": round(span.end_ms, 6),
              "dur": round(span.duration_ms, 6)}
    record.update(span.fields)
    return record


def read_trace(path: str | Path
               ) -> tuple[dict, dict | None, list[dict], list[dict]]:
    """Parse an exported JSONL trace into ``(meta, topology, events,
    spans)``; ``meta`` is empty and ``topology`` None when absent."""
    meta: dict = {}
    topology = None
    events: list[dict] = []
    spans: list[dict] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        record_type = record.get("type")
        if record_type == "event":
            events.append(record)
        elif record_type == "span":
            spans.append(record)
        elif record_type == "meta":
            meta = record
        elif record_type == "topology":
            topology = record
    return meta, topology, events, spans


def _jsonl_lines(obs: Instrumentation) -> Iterator[str]:
    meta = {"type": "meta", "format": "repro-trace", "version": 1,
            "events": len(obs.events), "spans": len(obs.spans),
            "dropped_events": obs.dropped_events}
    end_ms = getattr(obs, "end_ms", None)
    if end_ms is not None:
        meta["end_ms"] = round(end_ms, 6)
    yield canonical_json(meta)
    topology = getattr(obs, "topology", None)
    if topology:
        yield canonical_json({"type": "topology", **topology})
    for event in obs.events:
        yield canonical_json(event_record(event.ts, event.kind, event.node,
                                          event.fields))
    for span in obs.spans:
        yield canonical_json(span_record(span))
    yield canonical_json({"type": "summary", **obs.snapshot()})


def trace_jsonl(obs: Instrumentation) -> str:
    """Render the whole trace as a JSONL string."""
    return "\n".join(_jsonl_lines(obs)) + "\n"


def write_trace_jsonl(obs: Instrumentation, path: str | Path) -> Path:
    """Write the JSONL trace to ``path`` and return it."""
    path = Path(path)
    path.write_text(trace_jsonl(obs))
    return path


def chrome_trace(obs: Instrumentation) -> dict:
    """Build a Chrome ``trace_event`` document (Perfetto-compatible).

    Simulated milliseconds map to trace microseconds so one simulated
    millisecond reads as one millisecond in the viewer.
    """
    nodes = sorted({span.node for span in obs.spans}
                   | {event.node for event in obs.events if event.node})
    tids = {node: index + 1 for index, node in enumerate(nodes)}
    trace_events: list[dict] = []
    for node, tid in tids.items():
        trace_events.append({"ph": "M", "pid": 1, "tid": tid,
                             "name": "thread_name",
                             "args": {"name": node or "(global)"}})
    for span in obs.spans:
        trace_events.append({
            "ph": "X", "pid": 1, "tid": tids.get(span.node, 0),
            "name": span.phase, "cat": "phase",
            "ts": round(span.start_ms * 1000.0, 3),
            "dur": round(span.duration_ms * 1000.0, 3),
            "args": {"key": span.key, **span.fields},
        })
    for event in obs.events:
        trace_events.append({
            "ph": "i", "pid": 1, "tid": tids.get(event.node, 0),
            "name": event.kind, "cat": "event", "s": "t",
            "ts": round(event.ts * 1000.0, 3),
            "args": dict(event.fields),
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(obs: Instrumentation, path: str | Path) -> Path:
    """Write the Chrome trace JSON to ``path`` and return it."""
    path = Path(path)
    path.write_text(canonical_json(chrome_trace(obs)))
    return path
