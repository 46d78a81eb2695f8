"""Zone clusters and cross-cluster migration (paper §VI).

Builds two zone clusters — cluster-0 (z0, z1) in California and
cluster-1 (z2, z3) in Sydney — each maintaining its own *regional* system
meta-data. An intra-cluster migration synchronizes only its own cluster;
a cross-cluster migration runs the CROSS-PROPOSE / PREPARED /
CROSS-COMMIT protocol between the two, coordinated by f+1 proxy nodes.

Run:  python examples/zone_clusters.py
"""

from repro import ZiziphusConfig, build_ziziphus


def main() -> None:
    deployment = build_ziziphus(ZiziphusConfig(
        num_zones=4, num_clusters=2, f=1))
    directory = deployment.directory
    for cluster in directory.cluster_ids:
        zones = directory.cluster_zones(cluster)
        region = directory.zone(zones[0]).region
        print(f"{cluster}: zones {zones} in {region}")

    alice = deployment.add_client("alice", "z0")
    plan = [("migrate", "z1"),          # intra-cluster (CA only)
            ("migrate", "z2"),          # cross-cluster (CA <-> SYD)
            ("local", ("deposit", 77)),
            ("local", ("balance",))]
    completed = []

    def next_step(record=None):
        if record is not None:
            completed.append(record)
            print(f"  {record.operation!r:35} -> {record.result}"
                  f"   ({record.latency_ms:7.1f} ms)")
        if len(completed) < len(plan):
            kind, arg = plan[len(completed)]
            if kind == "local":
                alice.submit_local(arg)
            else:
                alice.submit_migration(arg)

    alice.on_complete = next_step
    print("\nalice: intra-cluster hop, then a cross-cluster move ...")
    deployment.sim.schedule(0.0, next_step)
    deployment.run(120_000)

    print("\nregional meta-data after the moves:")
    for probe in ("z1n0", "z3n0"):
        node = deployment.nodes[probe]
        cluster = node.zone_info.cluster_id
        count = node.metadata.migrations_per_client.get("alice", 0)
        print(f"  {probe} ({cluster}): alice migrations seen = {count}")
    print("(cluster-0 saw both of its transactions; cluster-1 only the "
          "cross-cluster one — regional meta-data by design)")


if __name__ == "__main__":
    main()
