"""Figure 6 — performance under a single backup failure in each zone.

The paper repeats the Figure 4 measurement with one crashed backup per
zone and reports each protocol at its saturation point.

Shape claims under test (paper §VII-B):

1. Ziziphus (10% global) still attains the highest throughput and lowest
   latency of all protocols, at every zone count.
2. Faulty backups hurt flat PBFT the most: without failures its WAN
   quorums can be formed from the nearest regions; with failures every
   region must participate.
"""

from repro.bench.experiments import ZONE_COUNTS, fig6_specs
from repro.bench.runner import PointSpec, run_point
from repro.bench.report import print_table


def test_fig6_backup_failures(once):
    results = once(lambda: [run_point(spec) for spec in fig6_specs()])
    rows = []
    for r in results:
        row = r.row()
        row["failed/zone"] = r.spec.backup_failures_per_zone
        rows.append(row)
    print_table(rows, title="Figure 6 - peak performance, 1 backup down per zone")

    by_key = {(r.spec.protocol, r.spec.num_zones): r for r in results}
    for zones in ZONE_COUNTS:
        zizi = by_key[("ziziphus", zones)].metrics
        for baseline in ("two-level", "steward", "flat-pbft"):
            other = by_key[(baseline, zones)].metrics
            assert zizi.throughput_tps > other.throughput_tps, (
                f"{zones} zones under failure: ziziphus "
                f"{zizi.throughput_tps:.0f} <= {baseline} "
                f"{other.throughput_tps:.0f}")

    # Flat PBFT suffers relatively more from backup failures than Ziziphus
    # (its quorums now require the farthest regions).
    healthy_flat = run_point(PointSpec(protocol="flat-pbft", num_zones=3,
                                       clients_per_zone=120,
                                       global_fraction=0.1))
    failed_flat = by_key[("flat-pbft", 3)]
    healthy_zizi = run_point(PointSpec(protocol="ziziphus", num_zones=3,
                                       clients_per_zone=120,
                                       global_fraction=0.1))
    failed_zizi = by_key[("ziziphus", 3)]
    flat_hit = (healthy_flat.metrics.latency_mean_ms
                / max(failed_flat.metrics.latency_mean_ms, 1e-9))
    zizi_hit = (healthy_zizi.metrics.latency_mean_ms
                / max(failed_zizi.metrics.latency_mean_ms, 1e-9))
    print(f"\nlatency healthy/failed ratio: flat={flat_hit:.2f} "
          f"ziziphus={zizi_hit:.2f} (lower = bigger failure penalty)")
    assert flat_hit <= zizi_hit * 1.25, (
        "flat PBFT should be hurt at least as much as Ziziphus by "
        "backup failures")
