"""Forensic report rendering and offline trace audit.

The forensic report is a plain dict (see ``ProtocolMonitor.report``):

- ``format``/``version`` — ``repro-forensic-report`` v1.
- ``verdict`` — ``CLEAN`` or ``VIOLATIONS``.
- ``checks`` — how many events each checker examined (a report that
  checked nothing is vacuous, so the counts are part of the evidence).
- ``violations`` — every violation in detection order, with the rounded
  simulated timestamp, kind, culprit node and a structured detail dict.
- ``culpability`` — per-node counts by violation kind: the node a
  violation is *attributed to* (the signer of a bad certificate, the
  equivocating primary), not merely the node that observed it.

``audit_trace`` replays an exported JSONL trace through a fresh
:class:`ProtocolMonitor`; because both the exporter and the monitor
round timestamps identically and the trace embeds the topology and run
end time, the offline report is byte-for-byte the online one.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.export import read_trace
from repro.obs.monitor import MonitorConfig, MonitorTopology, ProtocolMonitor

__all__ = ["audit_trace", "format_report"]


def audit_trace(path: str | Path,
                config: MonitorConfig | None = None) -> ProtocolMonitor:
    """Replay a JSONL trace into the conformance checkers.

    Returns the finished monitor; callers read ``.violations`` /
    ``.report()``. ``monitor.*`` events present in the trace (violations
    re-emitted by the online monitor) are skipped so the replay derives
    its verdicts only from the protocol events themselves.
    """
    meta, topology, events, _ = read_trace(path)
    end_ms = meta.get("end_ms")
    monitor = ProtocolMonitor(
        topology=(MonitorTopology() if topology is None
                  else MonitorTopology.from_dict(topology)),
        config=config)
    last_ts = 0.0
    for record in events:
        kind = record["kind"]
        if kind.startswith("monitor."):
            continue
        ts = record["ts"]
        fields = {key: value for key, value in record.items()
                  if key not in ("type", "ts", "kind", "node")}
        monitor.on_event(ts, kind, record.get("node", ""), fields)
        if ts > last_ts:
            last_ts = ts
    monitor.finish(end_ms if end_ms is not None else last_ts)
    return monitor


def format_report(report: dict, max_violations: int = 50) -> str:
    """Human-readable rendering of a forensic report dict."""
    from repro.bench.report import format_table

    lines = [f"forensic report — verdict: {report['verdict']} "
             f"({report['violation_count']} violation(s))"]
    checks = report.get("checks") or {}
    if checks:
        total = sum(checks.values())
        parts = ", ".join(f"{name}={count}"
                          for name, count in checks.items())
        lines.append(f"checked {total} events: {parts}")
    else:
        lines.append("checked 0 events (vacuous run?)")
    violations = report.get("violations") or []
    if violations:
        rows = [{"ts_ms": f"{v['ts']:.3f}", "kind": v["kind"],
                 "culprit": v["culprit"],
                 "detail": json.dumps(v["detail"], sort_keys=True)}
                for v in violations[:max_violations]]
        lines.append(format_table(rows, "violations"))
        if len(violations) > max_violations:
            lines.append(f"... and {len(violations) - max_violations} "
                         "more violation(s)")
        culpability = report.get("culpability") or {}
        culp_rows = []
        for node, kinds in culpability.items():
            row = {"node": node, "total": sum(kinds.values())}
            row.update(kinds)
            culp_rows.append(row)
        lines.append(format_table(culp_rows, "culpability (per node)"))
    return "\n".join(lines)
