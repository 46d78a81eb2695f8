"""Kitchen-sink integration test: everything at once.

Two zone clusters, a Byzantine backup in two zones, one crashed backup
elsewhere, and a mixed workload of local transfers, migrations (some
cross-cluster) and cross-zone transfers — then drain and audit: every
client settled, all authoritative replicas agree, regional meta-data
converged per cluster, no forged state anywhere.
"""

from collections import Counter

from repro.core.deployment import ZiziphusConfig, build_ziziphus
from repro.pbft.faults import make_behavior
from repro.workload.driver import ClosedLoopDriver
from repro.workload.generator import WorkloadMix
from tests.conftest import fast_pbft, fast_sync


def test_mixed_workload_under_faults_converges():
    config = ZiziphusConfig(
        num_zones=4, num_clusters=2, f=1,
        pbft=fast_pbft(request_timeout_ms=1_500.0,
                       view_change_timeout_ms=3_000.0),
        sync=fast_sync(commit_timeout_ms=3_000.0, phase_timeout_ms=3_000.0,
                       watch_timeout_ms=3_000.0),
        behaviors={"z0n2": make_behavior("silent"),
                   "z2n3": make_behavior("corrupt-signature")})
    dep = build_ziziphus(config)
    dep.nodes["z1n1"].crash()   # a fail-stop backup on top of the Byzantine ones

    mix = WorkloadMix(global_fraction=0.15, cross_cluster_fraction=0.3,
                      cross_zone_fraction=0.2)
    driver = ClosedLoopDriver(dep, mix, clients_per_zone=6, seed=17)
    driver.start()
    dep.sim.run(until=1_500)

    # Stop new work; let everything in flight drain (generous: failure
    # timers plus WAN rounds).
    for client in driver._clients.values():
        client.on_complete = None
    dep.sim.run(until=dep.sim.now + 60_000)

    kinds = Counter(record.operation[0] for record in driver.records)
    assert kinds["transfer"] > 0
    assert kinds["migrate"] > 0
    assert len(driver.records) > 100

    # Every client settled somewhere consistent.
    for client_id, client in driver._clients.items():
        assert client._outstanding is None, f"{client_id} never completed"
        zone = client.current_zone
        live = [node for node in dep.zone_nodes(zone) if not node.crashed
                and node.node_id not in ("z0n2", "z2n3")]
        balances = {node.app.balance_of(client_id) for node in live}
        assert len(balances) == 1, f"{client_id} replicas diverged"
        holders = [node for node in live
                   if node.locks.is_current(client_id)]
        assert len(holders) >= 2, f"{client_id} lock not quorum-held"

    # Meta-data converged within each cluster (honest, live nodes).
    for cluster in dep.directory.cluster_ids:
        digests = {dep.nodes[m].metadata.state_digest()
                   for z in dep.directory.cluster_zones(cluster)
                   for m in dep.directory.zone(z).members
                   if not dep.nodes[m].crashed
                   and m not in ("z0n2", "z2n3")}
        assert len(digests) == 1, f"{cluster} meta-data diverged"

    # No escrow leaks from cross-zone transfers.
    assert all(node.app.held_total() == 0
               for node in dep.nodes.values() if not node.crashed)
