"""Host-clock microbenches and the causal-tracing overhead gate.

Everything else in this repository measures *simulated* milliseconds.
Host time end to end, and where it goes, is measured by the benchmark
(``benchmarks/e2e``: ``run.py``, ``cycle.py --profile``); this module
holds the two host-clock pieces it and the CLI import:

- :func:`perf_report` — four microbenches of DES hot paths, reported by
  ``benchmarks/e2e/micro.py`` as ``micro.<name>_ops_s``:

  - ``sim_events``     — raw scheduler throughput (schedule + drain),
    including a cancelled-timer churn component (timers cancel
    constantly under chaos load);
  - ``digest``         — canonical-encoding + SHA-256 digests of fresh
    protocol messages carrying a shared nested certificate (the shape
    the wire actually sees: new envelope, reused certificate);
  - ``cert_validate``  — one quorum certificate validated by several
    receivers sharing a key registry (the paper's verified-once
    artifact): a scan up to the quorum, each signature answered from
    its own record;
  - ``threshold_validate`` — same for the constant-size threshold form
    (one read of the seal the combiner left on the certificate).

- :func:`overhead_report` / :func:`check_overhead` — the wall-time cost
  of causal tracing, gated against a budget by ``repro obs-overhead``.

Iteration counts are fixed (not adaptive) so two runs do comparable
work; each bench repeats ``repeat`` times and keeps the best time, which
suppresses scheduler noise.

This module lives in ``repro.bench`` deliberately: the determinism lint
forbids wall clocks inside the simulated protocol scope, and nothing
here runs inside it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.crypto.certificates import CertificateVerifier, QuorumCertificate
from repro.crypto.keys import KeyRegistry
from repro.crypto.threshold import ThresholdVerifier, combine_threshold
from repro.messages.client import ClientRequest
from repro.quorums import group_size, intra_zone_quorum

__all__ = ["perf_report", "overhead_report", "check_overhead",
           "format_overhead"]

#: Fixed per-bench iteration counts (comparable work across runs).
_SIM_EVENTS_N = 60_000
_SIM_CANCEL_N = 20_000
_DIGEST_N = 12_000
_CERT_N = 4_000
_THRESHOLD_N = 4_000


@dataclass(frozen=True)
class _DigestPayload:
    """Bench-only message shape: fresh envelope, shared nested parts."""

    sequence: int
    request: ClientRequest
    certificate: QuorumCertificate


def _bench_sim_events() -> dict:
    """Scheduler throughput: drain a heap of no-op events plus timer churn."""
    from repro.sim.events import Simulator

    sim = Simulator()

    def noop() -> None:
        pass

    start = time.perf_counter()
    for i in range(_SIM_EVENTS_N):
        sim.schedule(i * 0.01, noop)
    # Timer churn: scheduled then cancelled before firing, like protocol
    # retransmission timers that are answered in time.
    handles = [sim.schedule(1e9, noop) for _ in range(_SIM_CANCEL_N)]
    for handle in handles:
        handle.cancel()
    sim.run(until=1e8)
    elapsed = time.perf_counter() - start
    total = _SIM_EVENTS_N + _SIM_CANCEL_N
    return {"metric": "ops_per_sec", "n": total,
            "value": total / elapsed, "elapsed_ms": elapsed * 1e3}


def _bench_digest() -> dict:
    """Digest fresh messages that share a nested request + certificate."""
    from repro.crypto.digest import digest

    keys = KeyRegistry(seed=11)
    request = ClientRequest(operation=("transfer", "a", "b", 7),
                            timestamp=1, sender="client-0")
    payload_digest = digest(request)
    signatures = [keys.sign(f"n{i}", payload_digest) for i in range(5)]
    certificate = QuorumCertificate.aggregate(payload_digest, signatures)
    start = time.perf_counter()
    for i in range(_DIGEST_N):
        digest(_DigestPayload(sequence=i, request=request,
                              certificate=certificate))
    elapsed = time.perf_counter() - start
    return {"metric": "ops_per_sec", "n": _DIGEST_N,
            "value": _DIGEST_N / elapsed, "elapsed_ms": elapsed * 1e3}


def _bench_cert_validate() -> dict:
    """One certificate checked by four receivers over and over (f=2):
    each pays a scan of ``quorum`` (5) signatures, every one answered
    from the record its first check left on it."""
    f = 2
    members = tuple(f"n{i}" for i in range(group_size(f)))
    quorum = intra_zone_quorum(f)
    keys = KeyRegistry(seed=13)
    payload_digest = b"\x42" * 32
    signatures = [keys.sign(member, payload_digest)
                  for member in members[:quorum]]
    certificate = QuorumCertificate.aggregate(payload_digest, signatures)
    receivers = [CertificateVerifier(keys) for _ in range(4)]
    allowed = frozenset(members)
    start = time.perf_counter()
    for i in range(_CERT_N):
        receivers[i % 4].validate(certificate, quorum, allowed)
    elapsed = time.perf_counter() - start
    return {"metric": "ops_per_sec", "n": _CERT_N,
            "value": _CERT_N / elapsed, "elapsed_ms": elapsed * 1e3}


def _bench_threshold_validate() -> dict:
    """One certificate checked by four receivers, constant-size form:
    each pays one read of the seal ``combine_threshold`` left on it."""
    f = 2
    members = frozenset(f"n{i}" for i in range(group_size(f)))
    threshold = intra_zone_quorum(f)
    keys = KeyRegistry(seed=17)
    payload_digest = b"\x17" * 32
    shares = [keys.sign(member, payload_digest)
              for member in sorted(members)[:threshold]]
    certificate = combine_threshold(keys, payload_digest, shares,
                                    members, threshold)
    receivers = [ThresholdVerifier(keys) for _ in range(4)]
    start = time.perf_counter()
    for i in range(_THRESHOLD_N):
        receivers[i % 4].validate(certificate)
    elapsed = time.perf_counter() - start
    return {"metric": "ops_per_sec", "n": _THRESHOLD_N,
            "value": _THRESHOLD_N / elapsed, "elapsed_ms": elapsed * 1e3}


_BENCHES = {
    "sim_events": _bench_sim_events,
    "digest": _bench_digest,
    "cert_validate": _bench_cert_validate,
    "threshold_validate": _bench_threshold_validate,
}


def perf_report(repeat: int = 3, names: tuple[str, ...] | None = None) -> dict:
    """Run the suite and return the structured perf document.

    Each bench runs ``repeat`` times; the best run (highest throughput)
    is reported, which is the standard way to strip scheduler noise from
    a microbenchmark.
    """
    benches: dict[str, dict] = {}
    for name, fn in _BENCHES.items():
        if names is not None and name not in names:
            continue
        best = max((fn() for _ in range(max(1, repeat))),
                   key=lambda sample: sample["value"])
        best["value"] = round(best["value"], 1)
        best["elapsed_ms"] = round(best["elapsed_ms"], 3)
        benches[name] = best
    return {"format": "repro-perf", "version": 1, "repeat": repeat,
            "benches": benches}


def _overhead_spec(causal: bool):
    """The run_point shape the overhead gate times, with/without causal.

    Both sides record a full trace (the tier causal rides on), so the
    measured delta isolates exactly what the causal tier adds: ctx
    stamping, ``txn.*`` events, and ``trace.link`` emission.
    """
    from repro.bench.runner import PointSpec

    return PointSpec(protocol="ziziphus", num_zones=3, f=1,
                     clients_per_zone=20, global_fraction=0.1,
                     warmup_ms=150.0, measure_ms=250.0, seed=7,
                     record_trace=True, instrument=True,
                     sample_interval_ms=0.0, causal=causal)


def overhead_report(repeat: int = 3) -> dict:
    """Measure the wall-time cost of causal tracing on ``run_point``.

    Runs the same traced point with causal tracing off and on,
    interleaved (off, on, off, on, ...) so drifting host load hits both
    sides equally, and compares best-of-``repeat`` wall times. The
    ``ratio`` is causal-on / causal-off; the CI gate budgets it at 1.05.
    """
    from repro.bench.runner import run_point

    best = {False: float("inf"), True: float("inf")}
    for _ in range(max(1, repeat)):
        for causal in (False, True):
            spec = _overhead_spec(causal)
            start = time.perf_counter()
            run_point(spec)
            elapsed_ms = (time.perf_counter() - start) * 1e3
            best[causal] = min(best[causal], elapsed_ms)
    ratio = best[True] / best[False] if best[False] else float("inf")
    return {"format": "repro-obs-overhead", "version": 1, "repeat": repeat,
            "base_ms": round(best[False], 3),
            "causal_ms": round(best[True], 3),
            "ratio": round(ratio, 4)}


def check_overhead(budget: float = 1.05, repeat: int = 3,
                   current: dict | None = None) -> list[str]:
    """Gate the causal-tracing overhead ratio against ``budget``.

    Returns problem messages (empty = within budget).
    """
    if current is None:
        current = overhead_report(repeat=repeat)
    if current["ratio"] > budget:
        return [f"causal tracing overhead {current['ratio']:.4f}x exceeds "
                f"budget {budget:g}x (base {current['base_ms']:.1f} ms, "
                f"causal {current['causal_ms']:.1f} ms)"]
    return []


def format_overhead(document: dict) -> str:
    """One-paragraph text rendering of an overhead document."""
    return (f"causal tracing overhead: {document['ratio']:.4f}x "
            f"(base {document['base_ms']:.1f} ms -> "
            f"causal {document['causal_ms']:.1f} ms, "
            f"best of {document['repeat']})")
