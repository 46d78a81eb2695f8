"""Unified instrumentation spine (structured trace / metrics bus).

One :class:`~repro.obs.bus.Instrumentation` hub per deployment collects
every accounting signal the repo previously kept in three silos (network
counters, ``busy_until`` utilization, client-side latency aggregation):

- **counters** — always on, cheap dict increments (the reimplemented
  ``NetworkStats`` is a thin view over them);
- **histograms and protocol-phase spans** — on when the bus is
  ``enabled`` (benchmarks with ``instrument=True``);
- **structured trace events** — on when the bus is ``recording``;
  exportable as deterministic JSONL and as Chrome ``trace_event`` JSON
  viewable in Perfetto.

Everything is driven by *simulated* time only, so a fixed seed yields a
byte-identical trace.
"""

from repro.obs.bus import Instrumentation
from repro.obs.causal import (attribution_columns, critical_path_clean,
                              critical_path_from_jsonl,
                              critical_path_from_obs)
from repro.obs.events import (PHASE_ACCEPT, PHASE_ACCEPTED, PHASE_COMMIT,
                              PHASE_CROSS_CLUSTER, PHASE_ENDORSE,
                              PHASE_GLOBAL_TXN, PHASE_MIGRATION_COPY,
                              PHASE_MIGRATION_STATE, PHASE_PBFT,
                              PHASE_PROMISE, PHASE_PROPOSE, Span, TraceEvent)
from repro.obs.export import (chrome_trace, trace_jsonl, write_chrome_trace,
                              write_trace_jsonl)
from repro.obs.flight import FlightRecorder
from repro.obs.hist import Histogram
from repro.obs.monitor import (MonitorConfig, MonitorTopology,
                               ProtocolMonitor, Violation)
from repro.obs.report import audit_trace, format_report
from repro.obs.sampler import UtilizationSampler

__all__ = [
    "Instrumentation",
    "Histogram",
    "FlightRecorder",
    "attribution_columns",
    "critical_path_clean",
    "critical_path_from_jsonl",
    "critical_path_from_obs",
    "UtilizationSampler",
    "MonitorConfig",
    "MonitorTopology",
    "ProtocolMonitor",
    "Violation",
    "audit_trace",
    "format_report",
    "TraceEvent",
    "Span",
    "trace_jsonl",
    "write_trace_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "PHASE_ENDORSE",
    "PHASE_PROPOSE",
    "PHASE_PROMISE",
    "PHASE_ACCEPT",
    "PHASE_ACCEPTED",
    "PHASE_COMMIT",
    "PHASE_GLOBAL_TXN",
    "PHASE_MIGRATION_STATE",
    "PHASE_MIGRATION_COPY",
    "PHASE_CROSS_CLUSTER",
    "PHASE_PBFT",
]
