"""One cycle of one workload in a fresh process: set up, run, measure.

``run.py`` starts this file once per cycle (``PYTHONPATH=src``,
``PYTHONHASHSEED=0``) and reads one JSON object from the last line of its
output. Nothing else runs in the process, so ``ru_maxrss`` is the
workload's own and every cycle pays imports and build like a user would.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import pstats
import resource
import statistics
import struct
import sys
import time

#: Set-up time counts from here: before ``repro`` is imported.
_PROCESS_START = time.perf_counter()


#: Simulated ms per timed slice: short enough that a burst of host noise
#: spoils few slices, long enough that the timer calls cost nothing.
SLICE_MS = 2.0


def calibrate() -> float:
    """Host seconds for a fixed piece of work of the kind the simulation
    does (dict and tuple traffic, ``str``/``struct`` encoding, SHA-256).

    This box's speed drifts by a quarter over minutes, for whole runs at
    a time, so timing the same work again does not cancel it. Timing this
    beside every slice does: ``run.py`` reports host time as a multiple
    of it.
    """
    started = time.perf_counter()
    table = {}
    hasher = hashlib.sha256()
    for i in range(1200):
        key = str(i)
        table[key] = (i, key)
        hasher.update(struct.pack(">Id", i, i * 0.5))
        if isinstance(table[key], tuple):
            hasher.update(key.encode())
    sorted(table.values(), key=lambda item: -item[0])
    hasher.digest()
    return time.perf_counter() - started


def run_cycle(name: str, seed: int, measure_ms: float | None,
              profile: bool) -> dict:
    # Imported here, not at the top, so that set-up time includes them.
    from repro.bench.metrics import compute_metrics

    import layers
    import metrics
    import workloads

    workload = workloads.WORKLOADS[name]
    if measure_ms is not None:
        workload = workloads.shortened(workload, measure_ms)
    built = workloads.build(workload, seed)
    deployment, sim = built.deployment, built.deployment.sim
    home_zone = dict(built.driver.zone_of_client)
    end_ms = workload.end_ms
    profiler = cProfile.Profile() if profile else None
    gc.collect()
    setup_s = time.perf_counter() - _PROCESS_START
    setup_calibration_s = statistics.median(calibrate() for _ in range(25))

    # The run is cut into slices of simulated time, each timed beside a
    # calibration. A slice does the same work in every cycle of a seed,
    # so run.py can take each slice from the cycle where it went fastest
    # (noise on a shared host only ever adds).
    slices = []
    now_ms = 0.0
    while now_ms < end_ms:
        now_ms = min(now_ms + SLICE_MS, end_ms)
        if profiler is not None:
            profiler.enable()
        started = time.perf_counter()
        sim.run(until=now_ms)
        if now_ms == end_ms:
            built.monitor.finish(end_ms)
        elapsed = time.perf_counter() - started
        if profiler is not None:
            profiler.disable()
        slices.append((elapsed, calibrate()))

    per_client = {cid: client.completed
                  for cid, client in deployment.clients.items()}
    records = built.driver.records
    # The repo's own definition of throughput and latency percentiles
    # over the measured window, as `repro bench` reports them.
    window = compute_metrics(records, workload.warmup_ms, end_ms)
    failed, submitted = metrics.failed_and_submitted(
        per_client, end_ms, workloads.STALE_MS)
    commits = len(records)
    reads = [r for r in records if "read" in r.labels]
    fast_reads = sum(1 for r in reads if r.labels["read"] == "fast")
    net = deployment.network.stats
    zone_size = len(deployment.zone_nodes(deployment.zone_ids[0]))
    batches = net.by_type["PrePrepare"] / (zone_size - 1)
    view_changes = sum(
        max(node.replica.view for node in deployment.zone_nodes(zone_id))
        for zone_id in deployment.zone_ids)

    problems = []
    # Liveness stalls are counted in failed_share, not hidden here.
    safety = [v for v in built.monitor.violations if v.kind != "stall"]
    if safety:
        kinds = sorted({v.kind for v in safety})
        problems.append(f"{len(safety)} safety violations: {kinds}")
    if not window.completed:
        problems.append("no completion in the measured window")
    if reads and fast_reads <= 0.9 * len(reads):
        problems.append(f"only {fast_reads}/{len(reads)} reads were fast")
    crash_ms = workload.crash_primary_at_ms
    # A --quick window ends before the view change can.
    if crash_ms is not None and measure_ms is None:
        if view_changes < 1:
            problems.append("the crash caused no view change")
        if not any(r.started_at > crash_ms
                   for cid, done in per_client.items()
                   if home_zone[cid] == "z0" for r in done):
            problems.append("no z0 operation started after the crash "
                            "completed")

    # Everything under "sim" comes from the seeded simulation alone and
    # must repeat exactly from cycle to cycle.
    out = {
        "setup": (setup_s, setup_calibration_s),
        "slices": slices,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problems": problems,
        "sim": {
            "sim_tput_tps": window.throughput_tps,
            "sim_p50_ms": window.latency_p50_ms,
            "sim_p99_ms": window.latency_p99_ms,
            "sim_unavail_ms": metrics.unavailable_ms(
                per_client, home_zone, workload.warmup_ms, end_ms),
            "failed_share": failed / submitted,
            "commits": commits,
            "window_commits": window.completed,
            "submitted": submitted,
            "failed": failed,
            "stalls": sum(1 for v in built.monitor.violations
                          if v.kind == "stall"),
            "sim.events_per_commit": sim.events_processed / commits,
            "net.msgs_per_commit": net.sent / commits,
            "net.wan_msgs_per_commit": net.wan_sent / commits,
            "net.dropped": net.dropped,
            "pbft.ops_per_batch":
                (commits - fast_reads) / batches if batches else 0.0,
            "pbft.view_changes": view_changes,
            "reads.fast_share": fast_reads / len(reads) if reads else 0.0,
            "reads.fallbacks": len(reads) - fast_reads,
            "sim.primary_util": max(node.utilization()
                                    for node in deployment.nodes.values()),
        },
    }
    if profiler is not None:
        out["layers"] = layers.fold(pstats.Stats(profiler).stats, commits)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--measure-ms", type=float)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    result = run_cycle(args.workload, args.seed, args.measure_ms,
                       args.profile)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
