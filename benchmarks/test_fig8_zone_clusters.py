"""Figure 8 — scalability using zone clusters.

The paper scales Ziziphus to 1..10 zone clusters (3 zones each) and runs
six workloads ``.{1,3,5}G(.{1,5}C)``: x% global transactions of which y%
cross clusters. Clustering replaces all-zone synchronization with
per-cluster synchronization; only cross-cluster migrations touch two
clusters.

Shape claims under test (paper §VII-D):

1. Throughput grows with the number of zone clusters (paper: up to
   749 ktps at 10 clusters for .1G(.1C)).
2. The best workload is .1G(.1C) (fewest global, fewest cross-cluster).
3. Latency stays roughly flat as clusters are added beyond two.
"""

from repro.bench.experiments import fig8_specs
from repro.bench.report import print_table
from repro.bench.runner import run_point

CLUSTERS = (1, 2, 4, 6)


def test_fig8_zone_clusters(once):
    results = once(lambda: [run_point(spec) for spec in fig8_specs(
        cluster_counts=CLUSTERS, clients_per_zone=25)])
    rows = []
    for r in results:
        row = r.row()
        row["clusters"] = r.spec.num_clusters
        row["cross%"] = int(r.spec.cross_cluster_fraction * 100)
        rows.append(row)
    print_table(rows, title="Figure 8 - zone cluster scaling (3 zones/cluster)")

    def tput(clusters: int, g: float, c: float) -> float:
        for r in results:
            if (r.spec.num_clusters == clusters
                    and r.spec.global_fraction == g
                    and (clusters == 1 or r.spec.cross_cluster_fraction == c)):
                return r.metrics.throughput_tps
        raise AssertionError("missing point")

    # (1) Scaling with cluster count on the friendliest workload.
    series = [tput(n, 0.1, 0.1) for n in CLUSTERS]
    assert series[-1] > series[0], f"no cluster scaling: {series}"

    # (2) .1G(.1C) is the best workload at the largest cluster count.
    best = tput(CLUSTERS[-1], 0.1, 0.1)
    for g, c in ((0.3, 0.1), (0.5, 0.1), (0.3, 0.5), (0.5, 0.5)):
        assert best >= tput(CLUSTERS[-1], g, c), (
            f".1G(.1C) should beat .{int(g*10)}G(.{int(c*10)}C)")

    # (3) Latency roughly flat beyond two clusters (within 2x).
    lat = {r.spec.num_clusters: r.metrics.latency_mean_ms
           for r in results
           if r.spec.global_fraction == 0.1
           and (r.spec.num_clusters == 1 or r.spec.cross_cluster_fraction == 0.1)}
    assert lat[CLUSTERS[-1]] < 2.0 * lat[2], (
        f"latency should stay roughly flat with clusters: {lat}")
