"""Metric names, units and bounds, and the pure functions from
completed-request records to end-to-end numbers.

A record is anything with ``started_at``, ``completed_at`` and ``result``
(``repro.pbft.client.CompletedRequest``); times are simulated ms.
"""

from __future__ import annotations

#: End-to-end metrics: ``name -> (unit, better, bound)``. The bound is the
#: share by which the metric may worsen between two commits, measured as
#: BENCHMARK.json's driver does (medians over runs of different seeds);
#: None keeps a metric out of BENCHMARK.json because its spread across
#: seeds is wider than any bound allowed there (README, "Bounds").
#: Simulated units are spelled ``sim_`` so that nothing mistakes them for
#: host time.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.20),
    "commits_per_wall_s": ("1/s", "higher", 0.20),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "sim_tput_tps": ("1/sim_s", "higher", 0.20),
    "sim_p50_ms": ("sim_ms", "lower", 0.10),
    "sim_p99_ms": ("sim_ms", "lower", 0.10),
    "sim_unavail_ms": ("sim_ms", "lower", None),
    "failed_share": ("ratio", "lower", None),
}
#: The metrics read from the host's clock or memory; everything else
#: comes from the seeded simulation and repeats exactly for one seed.
HOST_CLOCK = ("setup_s", "wall_s", "commits_per_wall_s", "peak_rss_mb")
#: BENCHMARK.json's ``end_to_end``.
BOUNDED = [name for name, spec in END_TO_END.items() if spec[2] is not None]
#: Simulation-side numbers BENCHMARK.json lists under ``per_layer``
#: beside the profile's.
PER_LAYER_SIM = (
    "sim_unavail_ms", "failed_share", "sim.events_per_commit",
    "net.msgs_per_commit", "net.wan_msgs_per_commit", "net.dropped",
    "pbft.ops_per_batch", "pbft.view_changes", "reads.fast_share",
    "reads.fallbacks", "sim.primary_util")


def unit_of(name: str) -> str:
    """Unit of any metric or count, from its name."""
    if name in END_TO_END:
        return END_TO_END[name][0]
    if name.endswith("_share") or name == "sim.primary_util":
        return "ratio"
    if name.endswith("_per_commit"):
        return "1/commit"
    if name == "trace.overhead_x":
        return "x"
    return "count"


def is_failure(result) -> bool:
    """Whether a reply tells the client its operation was not done."""
    return isinstance(result, tuple) and bool(result) \
        and result[0] in ("err", "rejected")


def failed_and_submitted(per_client: dict[str, list], end_ms: float,
                         stale_ms: float) -> tuple[int, int]:
    """Count failed and submitted operations of closed-loop clients.

    Each client always has exactly one operation outstanding, submitted
    when its previous one completed (or at t=0). Failed = replies that
    are errors or rejections + operations outstanding at ``end_ms`` for
    longer than ``stale_ms``.
    """
    failed = submitted = 0
    for records in per_client.values():
        submitted += len(records) + 1
        failed += sum(1 for r in records if is_failure(r.result))
        outstanding_since = records[-1].completed_at if records else 0.0
        if end_ms - outstanding_since > stale_ms:
            failed += 1
    return failed, submitted


def longest_gap_ms(completion_times: list[float], start_ms: float,
                   end_ms: float) -> float:
    """Longest stretch of ``[start_ms, end_ms)`` without a completion,
    window edges included, so a group that never recovers is charged
    up to the end of the run."""
    edges = [start_ms, *sorted(t for t in completion_times
                               if start_ms <= t < end_ms), end_ms]
    return max(b - a for a, b in zip(edges, edges[1:]))


def unavailable_ms(per_client: dict[str, list], home_zone: dict[str, str],
                   start_ms: float, end_ms: float) -> float:
    """Time without service: the longest completion gap of any group of
    clients, grouped by the zone they started in."""
    by_zone: dict[str, list[float]] = {}
    for client_id, records in per_client.items():
        by_zone.setdefault(home_zone[client_id], []).extend(
            r.completed_at for r in records)
    return max(longest_gap_ms(times, start_ms, end_ms)
               for times in by_zone.values())
