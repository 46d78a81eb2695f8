"""Figure 7 — fault-tolerance scalability (zone size 4 to 16 nodes).

The paper grows f from 1 to 5 (zone size 3f+1 from 4 to 16) across 3
zones and measures all protocols.

Shape claims under test (paper §VII-C):

1. Every protocol slows down with larger zones (PBFT's quadratic local
   communication).
2. Ziziphus stays the best protocol at every zone size (highest
   throughput, lowest latency up to noise).
3. The mechanism behind the paper's "+53% for Ziziphus vs +480% for flat
   PBFT": zone size does not change the number of *global* participants,
   so at light load Ziziphus's global-transaction latency barely moves
   while the zone size quadruples.
"""

from repro.bench.experiments import fig7_specs
from repro.bench.report import print_table
from repro.bench.runner import PointSpec, run_point

F_VALUES = (1, 2, 3, 5)


def test_fig7_zone_size(once):
    results = once(lambda: [run_point(spec) for spec in fig7_specs(
        f_values=F_VALUES, clients_per_zone=40)])
    rows = []
    for r in results:
        row = r.row()
        row["f"] = r.spec.f
        row["nodes/zone"] = 3 * r.spec.f + 1
        rows.append(row)
    print_table(rows, title="Figure 7 - zone size sweep (3 zones)")

    by_key = {(r.spec.protocol, r.spec.f): r.metrics for r in results}

    # (1) Larger zones are slower for everyone.
    for protocol in ("ziziphus", "two-level", "flat-pbft"):
        small = by_key[(protocol, F_VALUES[0])]
        large = by_key[(protocol, F_VALUES[-1])]
        assert large.latency_mean_ms > small.latency_mean_ms, (
            f"{protocol}: latency did not grow with zone size")
        assert large.throughput_tps < small.throughput_tps, (
            f"{protocol}: throughput did not drop with zone size")

    # (2) Ziziphus leads at every zone size.
    for f in F_VALUES:
        zizi = by_key[("ziziphus", f)]
        for baseline in ("two-level", "flat-pbft"):
            other = by_key[(baseline, f)]
            assert zizi.throughput_tps >= other.throughput_tps, (
                f"f={f}: ziziphus behind {baseline}")
            assert zizi.latency_mean_ms <= other.latency_mean_ms * 1.10, (
                f"f={f}: ziziphus latency worse than {baseline}")


def test_fig7_zone_size_does_not_touch_global_participants(once):
    """§VII-C's mechanism, measured directly at light (unsaturated) load:
    quadrupling the zone size leaves Ziziphus's global-transaction
    latency nearly unchanged (only the LAN-scale endorsement rounds grow;
    the WAN-scale top level still involves one primary per zone)."""
    def measure():
        out = {}
        for f in (1, 5):
            result = run_point(PointSpec(protocol="ziziphus", num_zones=3,
                                         f=f, clients_per_zone=8,
                                         global_fraction=0.1,
                                         warmup_ms=200, measure_ms=400))
            out[f] = result.metrics
        return out

    metrics = once(measure)
    growth = metrics[5].global_latency_ms / metrics[1].global_latency_ms
    print(f"\nziziphus global latency, 4 -> 16 nodes/zone: "
          f"{metrics[1].global_latency_ms:.0f} -> "
          f"{metrics[5].global_latency_ms:.0f} ms (x{growth:.2f})")
    assert growth < 1.30, (
        "global latency should barely grow with zone size; "
        f"grew x{growth:.2f}")
