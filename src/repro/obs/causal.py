"""Causal trace reconstruction and critical-path attribution.

Joins the three causal signal families a traced run records into one
span DAG per client transaction, then attributes where its latency went:

1. ``txn.submit`` / ``txn.reply`` — the client edge, minting the
   deterministic trace id (see :func:`repro.messages.trace.trace_id`);
2. ``trace.link`` — emitted where a consensus instance is *opened* (the
   PBFT primary's pre-prepare, the sync initiator's ballot assignment,
   the migration source's record generation), binding the instance's
   span key to the trace ids of the requests it carries;
3. the ordinary phase spans (``pbft``, ``global-txn``,
   ``propose``/``promise``/``accept``/``accepted``/``commit``,
   ``migration-state``/``migration-copy``, ``endorse``) whose keys the
   links resolve.

No id table crosses the wire: span keys are pure functions of protocol
state (``v{view}.s{seq}``, ``{seq}.{zone}``), links carry the join, and
endorsement instances embed their ballot key (``…-accept/5.z0``), so
every endorse span resolves through its sync or migration parent.

The same builder serves three consumers: ``repro critical-path`` over
an exported JSONL trace, the ``attr.*`` bench columns of a causal
point, and the ``fig-critical-path`` figure. A live bus is read through
the exporter's own records (:mod:`repro.obs.export`), so a report built
from it is byte-identical to one built from its exported trace.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable

from repro.obs.export import (canonical_json, event_record, read_trace,
                              span_record)

__all__ = ["SYNC_PHASES", "MIGRATION_PHASES", "TRACED_PHASES",
           "build_report", "report_from_obs", "report_from_jsonl",
           "report_json", "format_report", "attribution_columns",
           "report_clean", "critical_path_from_obs",
           "critical_path_from_jsonl", "critical_path_clean"]

#: Sync-protocol phases sharing the ballot span key ``{seq}.{zone}``.
SYNC_PHASES = frozenset({"global-txn", "propose", "promise", "accept",
                         "accepted", "commit"})
#: Migration phases, one span per member keyed ``{seq}.{zone}/{client}``
#: and joined through the group key ``{seq}.{zone}/{source}>{dest}``.
MIGRATION_PHASES = frozenset({"migration-state", "migration-copy"})
#: Every phase the analyzer can attach to a trace. Phases outside this
#: set (e.g. ``cross-cluster``) are counted as untraced, not orphaned.
TRACED_PHASES = frozenset({"pbft", "endorse"}) | SYNC_PHASES \
    | MIGRATION_PHASES

#: The four top-level hops attributed per completed transaction.
_HOPS = ("submit_ms", "consensus_ms", "reply_ms", "total_ms")
#: Orphan-span examples retained in the report (diagnostics, bounded).
_MAX_ORPHAN_EXAMPLES = 50


def _stats(values: list[float]) -> dict[str, float]:
    # Imported here: repro.bench imports the protocol stack, which
    # imports this package.
    from repro.bench.metrics import percentile

    ordered = sorted(values)
    return {
        "count": len(ordered),
        "mean": round(sum(ordered) / len(ordered), 3) if ordered else 0.0,
        "p50": round(percentile(ordered, 0.50), 3),
        "p95": round(percentile(ordered, 0.95), 3),
        "p99": round(percentile(ordered, 0.99), 3),
    }


# ----------------------------------------------------------------------
# DAG reconstruction
# ----------------------------------------------------------------------

def _span_traces(span: dict, links: dict[tuple[str, str], list[str]]
                 ) -> list[str] | None:
    """Trace ids a span belongs to, or None when it cannot be linked."""
    phase = span["phase"]
    key = span["key"]
    if phase == "pbft":
        # PBFT span keys recur across groups; the link key carries the
        # group tag the replicas stamped into the span's ``grp`` field.
        return links.get(("pbft", f"{span.get('grp', '')}/{key}"))
    if phase in SYNC_PHASES:
        return links.get(("sync", key))
    if phase in MIGRATION_PHASES:
        # Per member, keyed ``{seq}.{zone}/{client}``; the group's link is
        # filed under the group key the span carries as ``grp``.
        return links.get(("migration", span.get("grp", "")))
    if phase == "endorse":
        # Endorsement instances embed their parent key after the first
        # slash: ``gsync-accept/5.z0`` (sync ballot) and
        # ``mig-state/5.z0/z0>z1`` (migration group) both resolve this way.
        if "/" not in key:
            return None
        rest = key.split("/", 1)[1]
        return links.get(("sync", rest)) or links.get(("migration", rest))
    return None


def build_report(events: Iterable[dict], spans: Iterable[dict]) -> dict:
    """Reconstruct per-transaction span DAGs and attribute latency.

    Returns the canonical critical-path report dict (see
    ``repro critical-path``); deterministic for deterministic inputs.
    """
    traces: dict[str, dict] = {}
    links: dict[tuple[str, str], list[str]] = {}
    for event in events:
        kind = event["kind"]
        if kind == "txn.submit":
            entry = traces.setdefault(event["trace"], {"spans": []})
            entry["submit"] = event["ts"]
            entry["zone"] = event.get("zone", "")
            entry["kind"] = event.get("txn", "local")
        elif kind == "txn.reply":
            entry = traces.setdefault(event["trace"], {"spans": []})
            entry["reply"] = event["ts"]
        elif kind == "trace.link":
            bucket = links.setdefault((event["scope"], event["key"]), [])
            for tid in event["traces"]:
                if tid not in bucket:
                    bucket.append(tid)

    attached = 0
    untraced = 0
    orphans: list[dict] = []
    for span in spans:
        if span["phase"] not in TRACED_PHASES:
            untraced += 1
            continue
        tids = _span_traces(span, links)
        if not tids:
            orphans.append({"phase": span["phase"], "key": span["key"],
                            "node": span["node"]})
            continue
        attached += 1
        for tid in tids:
            entry = traces.setdefault(tid, {"spans": []})
            entry["spans"].append((span["phase"], span["start"],
                                   span["end"]))

    hop_values: dict[str, list[float]] = {hop: [] for hop in _HOPS}
    phase_values: dict[str, list[float]] = {}
    by_kind: dict[str, dict[str, list[float]]] = {}
    by_zone: dict[str, dict[str, list[float]]] = {}
    completed = in_flight = linked_only = 0
    for entry in traces.values():
        submit = entry.get("submit")
        reply = entry.get("reply")
        if submit is None:
            linked_only += 1
            continue
        if reply is None:
            in_flight += 1
            continue
        completed += 1
        txn_spans = entry["spans"]
        if txn_spans:
            first = min(start for _, start, _ in txn_spans)
            last = max(end for _, _, end in txn_spans)
        else:
            first = last = submit
        hops = {
            "submit_ms": max(0.0, first - submit),
            "consensus_ms": max(0.0, last - first),
            "reply_ms": max(0.0, reply - last),
            "total_ms": reply - submit,
        }
        for name, value in hops.items():
            hop_values[name].append(value)
        windows: dict[str, tuple[float, float]] = {}
        for phase, start, end in txn_spans:
            low, high = windows.get(phase, (start, end))
            windows[phase] = (min(low, start), max(high, end))
        for phase, (low, high) in windows.items():
            phase_values.setdefault(phase, []).append(high - low)
        for group, label in ((by_kind, entry.get("kind", "local")),
                             (by_zone, entry.get("zone", ""))):
            bucket = group.setdefault(label, {hop: [] for hop in _HOPS})
            for name, value in hops.items():
                bucket[name].append(value)

    return {
        "format": "repro-critical-path",
        "version": 1,
        "traces": {"total": len(traces), "completed": completed,
                   "in_flight": in_flight, "linked_only": linked_only},
        "spans": {"attached": attached, "orphans": len(orphans),
                  "untraced": untraced},
        "hops": {name: _stats(values)
                 for name, values in hop_values.items() if values},
        "phases": {phase: _stats(values)
                   for phase, values in sorted(phase_values.items())},
        "kinds": {label: {hop: _stats(vals)
                          for hop, vals in buckets.items() if vals}
                  for label, buckets in sorted(by_kind.items())},
        "zones": {label: {hop: _stats(vals)
                          for hop, vals in buckets.items() if vals}
                  for label, buckets in sorted(by_zone.items())},
        "orphan_examples": sorted(
            orphans, key=lambda o: (o["phase"], o["key"], o["node"])
        )[:_MAX_ORPHAN_EXAMPLES],
    }


def report_from_obs(obs: Any) -> dict:
    """Critical-path report straight off a live instrumentation bus,
    over the records its exported trace would hold."""
    return build_report(
        (event_record(e.ts, e.kind, e.node, e.fields) for e in obs.events),
        (span_record(span) for span in obs.spans))


def report_from_jsonl(path: str | Path) -> dict:
    """Critical-path report from an exported ``repro trace`` JSONL."""
    _, _, events, spans = read_trace(path)
    return build_report(events, spans)


def report_clean(report: dict) -> bool:
    """Whether every traced span joined a trace (no orphans)."""
    return report["spans"]["orphans"] == 0


def report_json(report: dict) -> str:
    """Canonical JSON encoding (byte-stable for a fixed seed)."""
    return canonical_json(report)


def attribution_columns(obs: Any) -> dict[str, float]:
    """``attr.*`` bench-row columns (p50 per hop) of a causal point."""
    report = report_from_obs(obs)
    hops = report["hops"]
    out = {f"attr.{name}": hops.get(name, {}).get("p50", 0.0)
           for name in _HOPS}
    # Certified reads trace as their own transaction kind; the column
    # appears only when the point issued reads, so write-only causal
    # rows keep their exact pre-read shape.
    read = report["kinds"].get("read")
    if read:
        out["attr.read_ms"] = read.get("total_ms", {}).get("p50", 0.0)
    return out


def format_report(report: dict) -> str:
    """Aligned text rendering: totals line plus hop/phase tables."""
    from repro.bench.report import format_table

    traces = report["traces"]
    spans = report["spans"]
    lines = [
        f"traces: {traces['total']} total, {traces['completed']} "
        f"completed, {traces['in_flight']} in flight; spans: "
        f"{spans['attached']} attached, {spans['orphans']} orphaned, "
        f"{spans['untraced']} untraced",
    ]
    hop_rows = [{"hop": name, **stats}
                for name, stats in report["hops"].items()]
    if hop_rows:
        lines.append("")
        lines.append(format_table(hop_rows,
                                  title="critical path per hop (ms)"))
    phase_rows = [{"phase": name, **stats}
                  for name, stats in report["phases"].items()]
    if phase_rows:
        lines.append("")
        lines.append(format_table(phase_rows,
                                  title="per-phase windows (ms)"))
    zone_rows = [{"zone": zone, **stats["total_ms"]}
                 for zone, stats in report["zones"].items()
                 if "total_ms" in stats]
    if zone_rows:
        lines.append("")
        lines.append(format_table(zone_rows,
                                  title="end-to-end per zone (ms)"))
    return "\n".join(lines)


# Package-level aliases: ``repro.obs`` re-exports these without clashing
# with the ``format_report``/``report`` names of :mod:`repro.obs.report`.
critical_path_from_obs = report_from_obs
critical_path_from_jsonl = report_from_jsonl
critical_path_clean = report_clean
