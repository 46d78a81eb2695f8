"""The instrumentation bus: one hub for counters, histograms, spans, events.

Every :class:`~repro.sim.events.Simulator` owns one, so ``.obs`` is
never ``None``: call sites call, and this module alone decides what is
kept. Counters are always live (a dict increment); over them sit two
recording tiers:

1. **Histograms and spans** only record when ``metrics``.
2. **Trace events** only record when ``recording`` (which implies
   ``metrics``); they feed the JSONL / Chrome exporters. An attached
   monitor or flight recorder sees every emitted event regardless.

A call site checks a tier itself only around work that is not the call
(``if obs.causal:`` before collecting trace ids, ``if obs.metrics:``
around the per-hop aggregates in ``Process.deliver``).

All timestamps are *simulated* milliseconds supplied by the caller; the
bus itself never reads a wall clock, so a fixed seed produces a
byte-identical trace.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any

from repro.obs.events import Span, TraceEvent
from repro.obs.hist import Histogram

__all__ = ["Instrumentation"]


class Instrumentation:
    """Structured metrics/trace hub shared by every layer of a deployment."""

    def __init__(self, enabled: bool = False, recording: bool = False,
                 max_events: int = 1_000_000,
                 metrics: bool | None = None, causal: bool = False,
                 flight: int | None = None) -> None:
        #: Causal-tracing tier: clients mint trace ids and emit
        #: ``txn.*`` events, consensus layers emit ``trace.link`` events
        #: (see :mod:`repro.obs.causal`). Implies ``recording`` — the
        #: links are ordinary trace events. Off by default so untraced
        #: runs stay byte-identical.
        self.causal = causal
        self.recording = recording or causal
        #: Histogram/span tier. ``enabled`` only supplies its default;
        #: the conformance monitor's always-on cheap tier passes
        #: ``metrics=False`` so per-phase aggregation (the expensive
        #: part at every message hop) stays off.
        self.metrics = self.recording or \
            (enabled if metrics is None else metrics)
        self.max_events = max_events
        #: Optional always-on flight recorder — a bounded ring of the
        #: last ``flight`` events fed from :meth:`emit` regardless of
        #: ``recording``; dumped post-mortem (see repro.obs.flight).
        self.flight = None
        if flight is not None:
            from repro.obs.flight import FlightRecorder
            self.flight = FlightRecorder(flight)
        #: Scalar counters (always live), e.g. ``net.sent``.
        self.counters: Counter = Counter()
        #: Grouped per-type counters, e.g. ``type_counters["net.msg"]``.
        self.type_counters: dict[str, Counter] = defaultdict(Counter)
        #: Named histograms (``metrics`` only), e.g. ``span.endorse``.
        self.histograms: dict[str, Histogram] = {}
        #: Structured point events (``recording`` only), emission order.
        self.events: list[TraceEvent] = []
        #: Closed phase spans (``recording`` only), close order.
        self.spans: list[Span] = []
        self.dropped_events = 0
        self._open_spans: dict[tuple[str, str, str], tuple[float, dict]] = {}
        self.sampler: Any = None
        #: Optional online conformance monitor (``repro.obs.monitor``).
        #: Fed from :meth:`emit` regardless of ``recording``.
        self.monitor: Any = None
        #: Topology description embedded in JSONL exports so offline
        #: audits can rebuild the monitor's zone/cluster maps.
        self.topology: dict | None = None
        #: Simulated end time of the run (for offline watchdog replay).
        self.end_ms: float | None = None

    # ------------------------------------------------------------------
    # Counters (always on)
    # ------------------------------------------------------------------
    def count(self, name: str, delta: int = 1) -> None:
        """Increment a scalar counter."""
        self.counters[name] += delta

    def count_type(self, group: str, type_name: str, delta: int = 1) -> None:
        """Increment one type's counter within a group."""
        self.type_counters[group][type_name] += delta

    def value(self, name: str) -> int:
        """Read a scalar counter (0 when never incremented)."""
        return self.counters[name]

    # ------------------------------------------------------------------
    # Histograms (metrics only)
    # ------------------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        """Record a value into a named histogram (``metrics`` only)."""
        if not self.metrics:
            return
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.record(value)

    def histogram(self, name: str) -> Histogram | None:
        """Return a named histogram, or None if nothing was recorded."""
        return self.histograms.get(name)

    # ------------------------------------------------------------------
    # Spans (metrics for the latency histograms, recording for the records)
    # ------------------------------------------------------------------
    def span_open(self, ts: float, phase: str, key: str, node: str = "",
                  **fields: Any) -> None:
        """Open (or re-open) a phase span keyed by ``(phase, key, node)``."""
        if not self.metrics:
            return
        self._open_spans[(phase, key, node)] = (ts, fields)

    def span_close(self, ts: float, phase: str, key: str, node: str = "",
                   **fields: Any) -> float | None:
        """Close a span; returns its duration, or None if never opened.

        Closing an unopened span is a deliberate no-op so call sites can
        close unconditionally (e.g. every node closes, only the opener
        recorded).
        """
        opened = self._open_spans.pop((phase, key, node), None)
        if opened is None:
            return None
        start, open_fields = opened
        duration = ts - start
        self.observe(f"span.{phase}", duration)
        self.count(f"spans.{phase}")
        if self.recording:
            merged = dict(open_fields)
            merged.update(fields)
            self.spans.append(Span(phase=phase, key=key, node=node,
                                   start_ms=start, end_ms=ts, fields=merged))
        return duration

    def open_span_count(self) -> int:
        """Number of spans opened but not yet closed (diagnostics)."""
        return len(self._open_spans)

    # ------------------------------------------------------------------
    # Events (recording only)
    # ------------------------------------------------------------------
    def emit(self, ts: float, kind: str, node: str = "",
             **fields: Any) -> None:
        """Append a structured trace event and feed the monitor.

        Recording gates the trace append only: an attached conformance
        monitor sees every emitted event even when ``recording`` is off
        (the benchmark "always-on cheap tier"). Events the monitor itself
        emits (``monitor.*``) are never dispatched back into it.
        """
        if self.recording:
            if len(self.events) < self.max_events:
                self.events.append(TraceEvent(ts=ts, kind=kind, node=node,
                                              fields=fields))
            else:
                self.dropped_events += 1
        if self.flight is not None:
            self.flight.record(ts, kind, node, fields)
        if self.monitor is not None and not kind.startswith("monitor."):
            self.monitor.on_event(ts, kind, node, fields)

    def emit_cert(self, ts: float, node: str, msg: str, zone_id: str,
                  cert: Any, valid: bool, src: str = "",
                  ref: str = "") -> None:
        """Describe a certificate-validity check as a ``cert.check`` event.

        Works for both quorum certificates (``.signatures``) and threshold
        certificates (``.group``/``.threshold``); the monitor re-derives
        the structural checks from the emitted signer set.
        """
        if not self.recording and self.flight is None \
                and self.monitor is None:
            return  # emit() would drop it; skip walking the certificate
        fields: dict[str, Any] = {}
        signatures = getattr(cert, "signatures", None)
        if signatures is not None:
            fields["signers"] = [sig.signer for sig in signatures]
        elif getattr(cert, "group", None) is not None:
            fields["signers"] = sorted(cert.group)
            fields["threshold"] = cert.threshold
        else:
            fields["signers"] = []
        self.emit(ts, "cert.check", node=node, msg=msg, zone=zone_id,
                  src=src, ref=ref, valid=bool(valid), **fields)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, deployment: Any) -> "Instrumentation":
        """Route a built deployment's sim, network, and processes here.

        Counters already accumulated on the network's default bus are
        merged so legacy views (``network.stats``) stay continuous.
        """
        deployment.sim.obs = self
        network = deployment.network
        if network.obs is not self:
            self.counters.update(network.obs.counters)
            for group, counts in network.obs.type_counters.items():
                self.type_counters[group].update(counts)
            network.obs = self
            for node_id in network.node_ids:
                network.process(node_id).obs = self
        return self

    def start_sampler(self, deployment: Any,
                      interval_ms: float = 25.0) -> None:
        """Begin periodic per-node queue-depth / utilization sampling."""
        from repro.obs.sampler import UtilizationSampler
        self.sampler = UtilizationSampler(self, deployment.sim,
                                          deployment.network,
                                          interval_ms=interval_ms)
        self.sampler.start()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def phase_stats(self) -> dict[str, dict[str, float]]:
        """Snapshot of every ``span.*`` histogram, keyed by phase name."""
        stats = {}
        for name in sorted(self.histograms):
            if name.startswith("span."):
                stats[name[len("span."):]] = self.histograms[name].snapshot()
        return stats

    def snapshot(self) -> dict[str, Any]:
        """Full structured summary (counters, types, histograms)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "type_counters": {group: dict(sorted(counts.items()))
                              for group, counts in
                              sorted(self.type_counters.items())},
            "histograms": {name: self.histograms[name].snapshot()
                           for name in sorted(self.histograms)},
            "dropped_events": self.dropped_events,
        }
