"""Wall-clock microbenchmark suite (``repro perf``).

Everything else in this repository measures *simulated* milliseconds;
this module is the one place that reads a real clock. It answers a
different question: how fast does the reproduction itself execute on the
host? ``BENCH_baseline.json`` gates simulated metrics, so a Python-level
slowdown (an accidentally quadratic loop, a lost cache) would merge
silently without this suite.

These microbenches cover the DES hot paths:

- ``sim_events``     — raw scheduler throughput (schedule + drain),
  including a cancelled-timer churn component (timers cancel constantly
  under chaos load);
- ``hop``            — one signed message hop end to end
  (``send_signed`` -> network -> ``deliver`` -> ``_dispatch`` ->
  ``verify_signed`` -> a no-op handler), as hops per second for unicasts
  and (``value_multicast``) for 3-way ``multicast_signed`` fan-outs;
- ``digest``         — canonical-encoding + SHA-256 digests of fresh
  protocol messages carrying a shared nested certificate (the shape the
  wire actually sees: new envelope, reused certificate);
- ``cert_validate``  — one quorum certificate validated by several
  receivers sharing a key registry (the paper's verified-once artifact):
  a scan up to the quorum, each signature answered from its own record;
- ``threshold_validate`` — same for the constant-size threshold form
  (one read of the seal the combiner left on the certificate);
- ``state_digest``   — one ``put`` + state root on a 1 000-key and on a
  20 000-key store; ``size_ratio`` (small-store rate / large-store rate)
  stays near 1 because the root costs the keys written, not the store;
- ``run_point``      — end-to-end wall time of a small Ziziphus
  experiment point (the number ``repro bench`` sweeps pay per point).

Iteration counts are fixed (not adaptive) so two runs of the suite do
comparable work; each bench repeats ``repeat`` times and keeps the best
time, which suppresses scheduler noise. The JSON report is stable in
*shape* (sorted keys, fixed fields); the values are wall-clock
measurements and vary run to run, which is why ``repro perf-check``
gates on a generous ratio band rather than byte identity.

This module lives in ``repro.bench`` deliberately: the determinism lint
forbids wall clocks inside the simulated protocol scope, and nothing
here runs inside it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro.crypto.certificates import CertificateVerifier, QuorumCertificate
from repro.crypto.keys import KeyRegistry
from repro.crypto.threshold import ThresholdVerifier, combine_threshold
from repro.messages.client import ClientRequest
from repro.quorums import group_size, intra_zone_quorum

__all__ = ["PERF_BASELINE_PATH", "perf_report", "write_perf_baseline",
           "check_perf", "format_perf", "overhead_report", "check_overhead",
           "format_overhead", "profile_report"]

PERF_BASELINE_PATH = "PERF_baseline.json"

#: Fixed per-bench iteration counts (comparable work across runs).
_SIM_EVENTS_N = 60_000
_SIM_CANCEL_N = 20_000
_HOP_N = 10_000
_DIGEST_N = 12_000
_CERT_N = 4_000
_THRESHOLD_N = 4_000
_STATE_DIGEST_N = 2_000
_STATE_DIGEST_SIZES = (1_000, 20_000)


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


def _bench_hop() -> dict:
    """Signed hops between host nodes: unicasts, then 3-way multicasts."""
    from repro.pbft.host import HostNode
    from repro.sim.events import Simulator
    from repro.sim.latency import Region
    from repro.sim.network import Network

    def elapsed_s(dsts: tuple[str, ...]) -> float:
        sim = Simulator()
        network = Network(sim, seed=19)
        keys = KeyRegistry(seed=19)
        for node_id in ("n0", *dsts):
            node = HostNode(sim, network, keys, node_id)
            node.register_handler(ClientRequest,
                                  lambda sender, payload, envelope: None)
            network.register(node, Region.OHIO)
        sender = network.process("n0")
        start = time.perf_counter()
        for i in range(_HOP_N):
            payload = ClientRequest(operation=("noop",), timestamp=i,
                                    sender="n0")
            if len(dsts) == 1:
                sender.send_signed(dsts[0], payload)
            else:
                sender.multicast_signed(dsts, payload)
        sim.run()
        return time.perf_counter() - start

    unicast = elapsed_s(("n1",))
    multicast = elapsed_s(("n1", "n2", "n3"))
    return {"metric": "ops_per_sec", "n": _HOP_N,
            "value": _HOP_N / unicast, "elapsed_ms": unicast * 1e3,
            "value_multicast": round(3 * _HOP_N / multicast, 1)}


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


def _bench_state_digest() -> dict:
    """One ``put`` + ``state_digest()`` per operation, small store and large."""
    from repro.storage.kvstore import KVStore

    elapsed = []
    for size in _STATE_DIGEST_SIZES:
        store = KVStore()
        store.import_records({f"client/c{i}/balance": i for i in range(size)})
        store.state_digest()
        start = time.perf_counter()
        for i in range(_STATE_DIGEST_N):
            store.put(f"client/c{i % size}/balance", -i)
            store.state_digest()
        elapsed.append(time.perf_counter() - start)
    small, large = elapsed
    return {"metric": "ops_per_sec", "n": _STATE_DIGEST_N,
            "value": _STATE_DIGEST_N / large, "elapsed_ms": large * 1e3,
            "value_1k": round(_STATE_DIGEST_N / small, 1),
            "size_ratio": round(large / small, 3)}


def _bench_run_point() -> dict:
    """End-to-end wall time of one small Ziziphus point."""
    from repro.bench.runner import PointSpec, run_point

    spec = PointSpec(protocol="ziziphus", num_zones=3, f=1,
                     clients_per_zone=20, global_fraction=0.1,
                     warmup_ms=150.0, measure_ms=250.0, seed=7)
    start = time.perf_counter()
    result = run_point(spec)
    elapsed = time.perf_counter() - start
    return {"metric": "wall_ms", "n": result.metrics.completed,
            "value": elapsed * 1e3, "elapsed_ms": elapsed * 1e3}


_BENCHES = {
    "sim_events": _bench_sim_events,
    "hop": _bench_hop,
    "digest": _bench_digest,
    "cert_validate": _bench_cert_validate,
    "threshold_validate": _bench_threshold_validate,
    "state_digest": _bench_state_digest,
    "run_point": _bench_run_point,
}


def perf_report(repeat: int = 3, names: tuple[str, ...] | None = None) -> dict:
    """Run the suite and return the structured perf document.

    Each bench runs ``repeat`` times; the best run (highest throughput /
    lowest wall time) is reported, which is the standard way to strip
    scheduler noise from a microbenchmark.
    """
    benches: dict[str, dict] = {}
    for name, fn in _BENCHES.items():
        if names is not None and name not in names:
            continue
        best: dict | None = None
        for _ in range(max(1, repeat)):
            sample = fn()
            if best is None:
                best = sample
            elif sample["metric"] == "wall_ms":
                if sample["value"] < best["value"]:
                    best = sample
            elif sample["value"] > best["value"]:
                best = sample
        best["value"] = round(best["value"], 1)
        best["elapsed_ms"] = round(best["elapsed_ms"], 3)
        benches[name] = best
    return {"format": "repro-perf", "version": 1, "repeat": repeat,
            "benches": benches}


def perf_json(document: dict) -> str:
    """Canonical JSON encoding of a perf document."""
    return json.dumps(document, indent=2, sort_keys=True)


def format_perf(document: dict) -> str:
    """Aligned text table of a perf document."""
    from repro.bench.report import format_table

    rows = []
    for name, bench in sorted(document["benches"].items()):
        row = {
            "bench": name,
            "metric": bench["metric"],
            "value": bench["value"],
            "n": bench["n"],
            "elapsed_ms": bench["elapsed_ms"],
        }
        row.update((k, v) for k, v in bench.items() if k not in row)
        rows.append(row)
    return format_table(rows, title=f"repro perf (best of {document['repeat']})")


def write_perf_baseline(path: str | Path = PERF_BASELINE_PATH,
                        repeat: int = 3) -> Path:
    """Measure and write the wall-clock baseline JSON; returns the path."""
    path = Path(path)
    path.write_text(perf_json(perf_report(repeat=repeat)) + "\n")
    return path


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


def profile_report() -> dict:
    """Self-profile the ``run_point`` bench shape's event loop.

    Attaches a :class:`repro.obs.profiler.SimProfiler` to the same
    small Ziziphus point ``repro perf`` times end-to-end, and returns
    its per-handler / per-message report (see repro.obs.profiler for
    which fields are deterministic).
    """
    from dataclasses import replace as _replace

    from repro.bench.runner import run_point

    spec = _replace(_overhead_spec(causal=False), record_trace=False,
                    instrument=False, profile=True)
    result = run_point(spec)
    return result.profiler.report()


def check_perf(path: str | Path = PERF_BASELINE_PATH, ratio: float = 2.0,
               repeat: int = 3, current: dict | None = None) -> list[str]:
    """Re-measure and compare against the stored baseline.

    Returns regression messages (empty = within the band). The gate is
    ratio-based: a throughput bench fails when it runs more than
    ``ratio`` times slower than baseline, a wall-time bench when it
    takes more than ``ratio`` times longer. The default 2x band is
    deliberately generous — CI runners are noisy, and the point is to
    catch structural slowdowns, not jitter. A bench that times one
    operation at two input sizes (``size_ratio``) also fails when the
    large input is more than ``ratio`` times slower than the small one.
    """
    stored = json.loads(Path(path).read_text())
    baseline = stored.get("benches", {})
    if current is None:
        current = perf_report(repeat=repeat)
    problems: list[str] = []
    for name, now in current["benches"].items():
        if now.get("size_ratio", 1.0) > ratio:
            problems.append(
                f"{name}: cost grows with input size "
                f"(large/small {now['size_ratio']:.2f}, ratio {ratio:g})")
        base = baseline.get(name)
        if base is None:
            problems.append(f"{name}: missing from baseline "
                            "(run `repro perf-baseline` to refresh)")
            continue
        if now["metric"] == "wall_ms":
            ceiling = base["value"] * ratio
            if now["value"] > ceiling:
                problems.append(
                    f"{name}: wall time regressed {base['value']:.1f} -> "
                    f"{now['value']:.1f} ms (ceiling {ceiling:.1f}, "
                    f"ratio {ratio:g})")
        else:
            floor = base["value"] / ratio
            if now["value"] < floor:
                problems.append(
                    f"{name}: throughput regressed {base['value']:.0f} -> "
                    f"{now['value']:.0f} ops/s (floor {floor:.0f}, "
                    f"ratio {ratio:g})")
    return problems
