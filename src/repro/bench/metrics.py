"""Throughput / latency metrics over completed-request records.

When an :class:`~repro.obs.bus.Instrumentation` bus is supplied, the
metrics additionally carry a *per-phase latency breakdown* derived from
the protocol spans the bus collected: intra-zone endorsement time, WAN
phase time (promise + accepted round trips), CPU queueing delay, and
local PBFT consensus time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.pbft.client import CompletedRequest

__all__ = ["Metrics", "compute_metrics", "phase_breakdown",
           "read_columns", "percentile"]


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Linearly interpolated percentile over pre-sorted values.

    ``fraction`` is in ``[0, 1]``; between ranks, the value is
    interpolated (numpy's default "linear" method), so e.g. the median
    of ``[1, 2]`` is ``1.5`` rather than an arbitrary neighbour.
    """
    if not sorted_values:
        return 0.0
    fraction = min(1.0, max(0.0, fraction))
    position = fraction * (len(sorted_values) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return sorted_values[lower]
    weight = position - lower
    return sorted_values[lower] * (1 - weight) + sorted_values[upper] * weight


@dataclass
class Metrics:
    """Aggregate performance numbers for one experiment point."""

    completed: int
    throughput_tps: float
    latency_mean_ms: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    local_completed: int
    global_completed: int
    local_latency_ms: float
    global_latency_ms: float
    #: Per-phase mean latency columns (ms), populated when an
    #: instrumentation bus was attached to the run; empty otherwise.
    phase_breakdown: dict[str, float] = field(default_factory=dict)
    #: Conformance-monitor violation count; None when no monitor ran.
    violations: int | None = None

    def row(self) -> dict[str, float]:
        """Flat dict for report tables."""
        out = {
            "tput_tps": round(self.throughput_tps, 1),
            "lat_ms": round(self.latency_mean_ms, 2),
            "p50_ms": round(self.latency_p50_ms, 2),
            "p95_ms": round(self.latency_p95_ms, 2),
            "completed": self.completed,
        }
        for name, value in self.phase_breakdown.items():
            out[name] = round(value, 3)
        if self.violations is not None:
            out["viol"] = self.violations
        return out


def _hist_mean(obs, *names: str) -> float:
    """Count-weighted mean across one or more bus histograms."""
    total = 0.0
    count = 0
    for name in names:
        hist = obs.histograms.get(name)
        if hist is not None and hist.count:
            total += hist.total
            count += hist.count
    return total / count if count else 0.0


def phase_breakdown(obs) -> dict[str, float]:
    """Derive the per-phase latency columns from collected spans.

    - ``endorse_ms``: mean intra-zone endorsement round.
    - ``wan_ms``: mean WAN phase (promise + accepted round trips).
    - ``queue_ms``: mean CPU queueing delay per message.
    - ``pbft_ms``: mean local PBFT consensus (pre-prepare -> execute).
    """
    return {
        "endorse_ms": _hist_mean(obs, "span.endorse"),
        "wan_ms": _hist_mean(obs, "span.promise", "span.accepted"),
        "queue_ms": _hist_mean(obs, "cpu.queue_ms"),
        "pbft_ms": _hist_mean(obs, "span.pbft"),
    }


def read_columns(window: list[CompletedRequest]) -> dict[str, float]:
    """Certified-read columns (repro.reads), present only when the
    window contains read-labelled records so write-only rows keep their
    shape:

    - ``read_p50_ms`` / ``read_p95_ms``: fast-path read latency;
    - ``read_fast``: fraction of reads served without consensus;
    - ``read_fallbacks``: reads that fell back to the transactional path.
    """
    reads = [r for r in window if "read" in r.labels]
    if not reads:
        return {}
    fast = sorted(r.latency_ms for r in reads
                  if r.labels["read"] == "fast")
    fallbacks = len(reads) - len(fast)
    return {
        "read_p50_ms": percentile(fast, 0.50),
        "read_p95_ms": percentile(fast, 0.95),
        "read_fast": len(fast) / len(reads),
        "read_fallbacks": float(fallbacks),
    }


def compute_metrics(records: list[CompletedRequest], warmup_ms: float,
                    end_ms: float, obs=None, monitor=None) -> Metrics:
    """Aggregate records completed in the measurement window.

    Throughput is completions per second over ``[warmup_ms, end_ms)``;
    latencies are per-request end-to-end times. ``obs``, if given, is an
    enabled instrumentation bus whose spans yield the per-phase columns.
    ``monitor``, if given, contributes its violation count.
    """
    window = [r for r in records
              if warmup_ms <= r.completed_at < end_ms]
    duration_s = max((end_ms - warmup_ms) / 1000.0, 1e-9)
    latencies = sorted(r.latency_ms for r in window)
    locals_ = [r for r in window if not r.is_global]
    globals_ = [r for r in window if r.is_global]

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    breakdown = phase_breakdown(obs) if obs is not None else {}
    breakdown.update(read_columns(window))
    return Metrics(
        completed=len(window),
        throughput_tps=len(window) / duration_s,
        latency_mean_ms=mean(latencies),
        latency_p50_ms=percentile(latencies, 0.50),
        latency_p95_ms=percentile(latencies, 0.95),
        latency_p99_ms=percentile(latencies, 0.99),
        local_completed=len(locals_),
        global_completed=len(globals_),
        local_latency_ms=mean([r.latency_ms for r in locals_]),
        global_latency_ms=mean([r.latency_ms for r in globals_]),
        phase_breakdown=breakdown,
        violations=len(monitor.violations) if monitor is not None else None,
    )
