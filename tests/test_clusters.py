"""Cross-cluster data synchronization tests (paper §VI)."""

import pytest

from repro.bench.runner import PointSpec, run_point
from repro.consensus import BACKENDS
from repro.core.deployment import ZiziphusConfig, build_ziziphus
from repro.crypto.digest import digest
from repro.messages.base import sign_message
from repro.messages.client import MigrationRequest
from repro.messages.cluster import CrossCommit, CrossPropose, Prepared
from repro.messages.sync import (GENESIS_BALLOT, Ballot, accept_body,
                                 commit_body)
from tests.conftest import (assert_booked, cert_of, drive_to_completion,
                            fast_pbft, fast_sync, inject, monitored)


def build_clustered(num_clusters=2, zones_per_cluster=2, stable_leader=True,
                    **overrides):
    config = ZiziphusConfig(
        num_zones=num_clusters * zones_per_cluster,
        num_clusters=num_clusters, f=1, pbft=fast_pbft(),
        sync=fast_sync(stable_leader=stable_leader,
                       commit_timeout_ms=2_000.0, phase_timeout_ms=2_000.0),
        **overrides)
    return build_ziziphus(config)


def test_topology_assigns_zones_to_clusters():
    dep = build_clustered(num_clusters=3, zones_per_cluster=2)
    directory = dep.directory
    assert directory.cluster_ids == ["cluster-0", "cluster-1", "cluster-2"]
    assert directory.cluster_zones("cluster-1") == ["z2", "z3"]
    assert directory.cluster_of_zone("z5") == "cluster-2"
    # Zones of one cluster share a region (paper §VII-D).
    regions = {directory.zone(z).region
               for z in directory.cluster_zones("cluster-0")}
    assert len(regions) == 1


def test_intra_cluster_migration_does_not_touch_other_clusters():
    dep = build_clustered()
    client = dep.add_client("c1", "z0")
    records = drive_to_completion(dep, client, [("migrate", "z1")])
    assert records[0].result == ("migrated", "ok", "z1")
    # Cluster-1's meta-data never heard of the migration.
    for node in dep.zone_nodes("z2") + dep.zone_nodes("z3"):
        assert node.sync.migrations_executed == 0
        assert "c1" not in node.metadata.migrations_per_client


@pytest.mark.parametrize("dest", ["z2", "z3"])
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_cross_cluster_migration_end_to_end(backend, dest):
    """Into either zone of the other cluster, on every backend. Under
    ``rotating`` z3 orders its own half; when the cross-cluster engine
    asked the stable leader's question instead, it answered only in z2
    and the migration to z3 never completed."""
    dep = build_clustered(backend=backend)
    client = dep.add_client("c1", "z0")
    records = drive_to_completion(dep, client, [
        ("local", ("deposit", 9)),
        ("migrate", dest),            # cluster-0 -> cluster-1
        ("local", ("balance",)),
    ])
    assert [r.result for r in records[1:]] == [("migrated", "ok", dest),
                                               ("ok", 10_009)]
    assert client.current_zone == dest
    for node in dep.zone_nodes(dest):
        assert node.locks.is_current("c1")
        assert node.app.balance_of("c1") == 10_009
    for node in dep.zone_nodes("z0"):
        assert not node.locks.is_current("c1")


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_point_where_every_migration_crosses_clusters(backend):
    """Every migration of the point moves a client to the other
    cluster; ``rotating`` completed 54 operations with 27 violations
    while its destination zones' halves were coordinated elsewhere."""
    result = run_point(PointSpec(
        protocol="ziziphus", num_zones=4, num_clusters=2,
        clients_per_zone=10, global_fraction=0.5,
        cross_cluster_fraction=1.0, warmup_ms=200.0, measure_ms=400.0,
        seed=1, backend=backend, monitor=True))
    row = result.row()
    assert row["completed"] > 0
    assert row["viol"] == 0


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_fault_free_point_waits_for_a_held_ballot_without_asking(backend):
    """A ballot held for its CROSS-COMMIT is uncommitted by design, so a
    successor waits for it without a RESPONSE-QUERY. (Every uncommitted
    predecessor was asked for: seed 1 sent 2 684 queries on ``default``,
    2 594 on ``rotating`` and 1 540 on ``syncbft``, all of them for a
    held ballot.)"""
    result = run_point(PointSpec(
        protocol="ziziphus", num_zones=4, num_clusters=2,
        clients_per_zone=20, global_fraction=0.3,
        cross_cluster_fraction=0.5, seed=1, backend=backend))
    assert result.row()["completed"] > 0
    assert result.obs.type_counters["net.msg"]["ResponseQuery"] == 0


def test_each_cluster_executes_on_its_own_regional_metadata():
    dep = build_clustered()
    client = dep.add_client("c1", "z0")
    drive_to_completion(dep, client, [("migrate", "z2")])
    # Both clusters executed their half of the cross-commit.
    src_side = dep.nodes["z1n0"]      # cluster-0 follower zone
    dst_side = dep.nodes["z3n0"]      # cluster-1 follower zone
    assert src_side.sync.migrations_executed >= 1
    assert dst_side.sync.migrations_executed >= 1
    # A subsequent *intra*-cluster migration in cluster-1 must not be
    # synchronized into cluster-0 (regional meta-data, §VI).
    drive_to_completion(dep, client, [("migrate", "z3")])
    assert dst_side.metadata.migrations_per_client["c1"] == 2
    assert src_side.metadata.migrations_per_client["c1"] == 1
    assert src_side.metadata.client_zone["c1"] == "z2"   # stale by design
    # Meta-data agrees within each cluster.
    for cluster in ("cluster-0", "cluster-1"):
        digests = {dep.nodes[m].metadata.state_digest()
                   for z in dep.directory.cluster_zones(cluster)
                   for m in dep.directory.zone(z).members}
        assert len(digests) == 1, f"{cluster} diverged"


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_move_back_into_a_cluster_with_a_stale_record_is_clean(backend):
    """c1 goes z0 -> z2 -> z3 -> z0. Cluster-0 last saw it at z2, since
    z2 -> z3 ran inside cluster-1 only, and adopts the third move's
    certified claim, z3. (While ``default`` and ``syncbft`` reported the
    stale z2 as the move's source, the monitor booked an
    ``ownership-fork`` against the owner z3.)"""
    dep = build_clustered(backend=backend)
    client = dep.add_client("c1", "z0")
    monitor = monitored(dep)
    records = drive_to_completion(dep, client, [
        ("migrate", "z2"), ("migrate", "z3"), ("migrate", "z0")],
        step_ms=60_000, max_steps=40)
    assert [r.result for r in records] == [
        ("migrated", "ok", "z2"), ("migrated", "ok", "z3"),
        ("migrated", "ok", "z0")]
    monitor.assert_clean()


def test_cross_cluster_without_stable_leader():
    dep = build_clustered(stable_leader=False)
    client = dep.add_client("c1", "z1")
    records = drive_to_completion(dep, client, [("migrate", "z3")],
                                  step_ms=60_000, max_steps=30)
    assert records[0].result == ("migrated", "ok", "z3")
    for node in dep.zone_nodes("z3"):
        assert node.app.balance_of("c1") == 10_000


def test_round_trip_across_clusters():
    dep = build_clustered()
    client = dep.add_client("c1", "z0")
    records = drive_to_completion(dep, client, [
        ("migrate", "z2"),
        ("local", ("deposit", 5)),
        ("migrate", "z0"),
        ("local", ("balance",)),
    ], step_ms=60_000, max_steps=40)
    assert records[-1].result == ("ok", 10_005)
    assert client.current_zone == "z0"


def test_a_node_that_missed_a_cross_cluster_commit_catches_up():
    """z0n3 is cut off while c0 migrates z0 -> z3 (cluster-0 -> cluster-1)
    and so misses that ballot's CROSS-COMMIT; the next cluster-0 ballot
    (c1: z1 -> z0) chains on it, and z0n3 asks its cluster for the
    missing COMMIT. The answer is the CROSS-COMMIT its sender signed, so
    z0n3 executes both ballots and refuses nothing. (A COMMIT re-sealed
    by the answering node, naming the CROSS-COMMIT's sender, failed
    every signature check: z0n3 executed neither and booked 3
    ``host.invalid``.)"""
    dep = build_clustered(seed=3)
    c0 = dep.add_client("c0", "z0")
    c1 = dep.add_client("c1", "z1")
    dep.network.disconnect("z0n3")
    dep.sim.schedule(1_500.0, lambda: dep.network.reconnect("z0n3"))
    dep.sim.schedule(0.0, lambda: c0.submit_migration("z3"))
    dep.sim.schedule(2_000.0, lambda: c1.submit_migration("z0"))
    dep.run(20_000.0)
    assert [node.sync.migrations_executed
            for node in dep.zone_nodes("z0")] == [2, 2, 2, 2]
    assert dep.nodes["z0n3"].obs.counters["host.invalid_messages"] == 0


def test_a_node_cut_off_after_the_accept_of_a_held_ballot_catches_up():
    """z0n3 validates the ACCEPT of c0's z0 -> z3 ballot, is cut off until
    the rest of z0 has committed it by CROSS-COMMIT, and is back before
    c1's z1 -> z0 ballot chains on it. The held ballot's commit deadline
    asks z0 for the CROSS-COMMIT, so z0n3 executes both."""
    dep = build_clustered(seed=3)
    c0 = dep.add_client("c0", "z0")
    c1 = dep.add_client("c1", "z1")
    z0n3 = dep.nodes["z0n3"]
    dep.sim.schedule(0.0, lambda: c0.submit_migration("z3"))

    def step_until(done):
        while not done():
            dep.run(dep.sim.now + 1.0)

    step_until(lambda: any(txn.batch for txn in z0n3.sync.txns.values()))
    dep.network.disconnect("z0n3")
    step_until(lambda: all(txn.committed
                           for node in dep.zone_nodes("z0")[:3]
                           for txn in node.sync.txns.values()))
    dep.network.reconnect("z0n3")
    dep.sim.schedule(100.0, lambda: c1.submit_migration("z0"))
    dep.run(20_000.0)
    assert [node.sync.migrations_executed
            for node in dep.zone_nodes("z0")] == [2, 2, 2, 2]


def test_proxies_are_f_plus_one_and_include_primary():
    dep = build_clustered()
    zone = dep.directory.zone("z0")
    proxies = zone.proxies(view=0)
    assert len(proxies) == zone.f + 1
    assert zone.primary(0) in proxies
    proxies_v1 = zone.proxies(view=1)
    assert zone.primary(1) in proxies_v1
    assert proxies != proxies_v1


# ----------------------------------------------------------------------
# Adversarial receipt: CROSS-PROPOSE, PREPARED and CROSS-COMMIT are judged
# by ZiziphusNode.check_cert, from both sides of the guard. The migration
# is c1: z0 (cluster-0) -> z2 (cluster-1); with a stable leader z2 orders
# the destination half and z0 the source half.
# ----------------------------------------------------------------------
DST, SRC = Ballot(seq=1, zone_id="z2"), Ballot(seq=1, zone_id="z0")
Z0, Z1, Z2 = (tuple(f"{zone}n{i}" for i in range(3))
              for zone in ("z0", "z1", "z2"))

#: variant -> (signers standing in for ``right``, certificate covers body)
BAD_CERTS = {"undersized": (lambda right: right[:2], True),
             "foreign-signers": (lambda right: Z1, True),
             "other-body": (lambda right: right, False)}


def signed_cross_migration(dep):
    request = MigrationRequest(operation=("migrate", "c1", "z0", "z2"),
                               timestamp=1, sender="c1",
                               source_zone="z0", dest_zone="z2")
    return sign_message(dep.keys, "c1", request)


def bad_cert(dep, variant, right, body):
    pick, covers = BAD_CERTS[variant]
    return cert_of(dep, pick(right), body, covers)


def nothing_ordered(dep):
    return all(not node.sync.txns and not node.sync.executed_results
               and node.replica.last_executed == 0
               for node in dep.nodes.values())


def cross_propose(dep, env, cert):
    return CrossPropose(view=0, dst_ballot=DST, dst_prev_ballot=GENESIS_BALLOT,
                        request=env, cert=cert, sender="z2n0")


@pytest.mark.parametrize("variant", sorted(BAD_CERTS))
def test_cross_propose_with_bad_certificate_is_refused(variant):
    dep = build_clustered()
    dep.add_client("c1", "z0")
    monitor = monitored(dep)
    env = signed_cross_migration(dep)
    body = accept_body(DST, GENESIS_BALLOT, digest((env.payload,)))
    sent = dep.network.stats.sent
    inject(dep, "z2n0", "z0n0",
           cross_propose(dep, env, bad_cert(dep, variant, Z2, body)))
    assert nothing_ordered(dep)
    assert not dep.nodes["z0n0"].cluster_engine._txns
    assert dep.network.stats.sent == sent + 1   # nobody answered
    assert_booked(monitor, "cross-propose", "z2n0")


def test_cross_propose_with_valid_certificate_is_ordered_at_the_source():
    dep = build_clustered()
    dep.add_client("c1", "z0")
    monitor = monitored(dep)
    env = signed_cross_migration(dep)
    body = accept_body(DST, GENESIS_BALLOT, digest((env.payload,)))
    inject(dep, "z2n0", "z0n0", cross_propose(dep, env, cert_of(dep, Z2, body)))
    txn = dep.nodes["z0n0"].cluster_engine._txns[digest(env.payload)]
    assert txn.role == "src" and txn.src_ballot == SRC
    # The source cluster ordered its half and is PREPARED (commit held).
    assert txn.sent_prepared and SRC in dep.nodes["z1n0"].sync.txns
    assert monitor.violations == []


def pending_destination(dep):
    """A real migration whose source cluster is down: the destination
    primary holds its commit certificate and waits for PREPARED."""
    client = dep.add_client("c1", "z0")
    for zone in ("z0", "z1"):
        for node in dep.zone_nodes(zone):
            node.crash()
    client.submit_migration("z2")
    dep.run(dep.sim.now + 1_000)
    (txn,) = dep.nodes["z2n0"].cluster_engine._txns.values()
    assert txn.role == "dst" and txn.cert_dst is not None
    return txn


#: Short enough that no failure timer of the waiting destination fires.
SETTLE_MS = 500


def cluster_nodes(dep, cluster_id):
    return [dep.nodes[m] for zone in dep.directory.cluster_zones(cluster_id)
            for m in dep.directory.zone(zone).members]


def test_a_new_destination_primary_holds_the_commit_too():
    """D3, safety. The source cluster is down, so the move can never be
    PREPARED there; the destination primary holding ``cert_dst``
    crashes. Its successor re-drives the ballot, and holds its commit
    just as the ballot's batch says: no node of the destination cluster
    executes a half the source cluster never agreed to. (A hold kept
    only by the primary that started the ballot let z2's next primary
    send a plain COMMIT, which all seven live nodes executed.)"""
    dep = build_clustered()
    pending_destination(dep)
    dep.nodes["z2n0"].crash()
    dep.run(dep.sim.now + 10_000)
    assert max(n.replica.view for n in dep.zone_nodes("z2")) >= 1
    for node in cluster_nodes(dep, "cluster-1"):
        assert not node.sync.executed_results, node.node_id


def test_a_destination_primary_crash_after_cross_propose_still_cross_commits():
    """D3, liveness. z2n0 crashes 1 ms after its CROSS-PROPOSE; the
    source cluster orders its half and its proxies send PREPARED to all
    of z2, whose members bank it. z2's next primary certifies the commit
    again and joins the two halves in a CROSS-COMMIT. (With the PREPARED
    banked only by the crashed primary, no CROSS-COMMIT was ever sent:
    each cluster executed its half from a plain COMMIT, R(c) never
    moved and the client stayed in z0.)"""
    dep = build_clustered()
    client = dep.add_client("c1", "z0")
    z2n0 = dep.nodes["z2n0"]
    multicast = z2n0.multicast_signed

    def crash_after_cross_propose(targets, payload, **kwargs):
        multicast(targets, payload, **kwargs)
        if isinstance(payload, CrossPropose):
            dep.sim.schedule(1.0, z2n0.crash)

    z2n0.multicast_signed = crash_after_cross_propose
    records = drive_to_completion(dep, client, [("migrate", "z2")],
                                  step_ms=30_000.0, max_steps=1)
    assert z2n0.crashed
    assert [r.result for r in records] == [("migrated", "ok", "z2")]
    (txn,) = dep.nodes["z2n1"].cluster_engine._txns.values()
    assert txn.finalized


@pytest.mark.parametrize("variant", sorted(BAD_CERTS))
def test_prepared_with_bad_certificate_is_refused(variant):
    dep = build_clustered()
    monitor = monitored(dep)
    txn = pending_destination(dep)
    request = txn.request_env.payload
    body = commit_body(SRC, GENESIS_BALLOT, digest((request,)))
    prepared = Prepared(view=0, src_ballot=SRC,
                        src_prev_ballot=GENESIS_BALLOT,
                        request_digest=digest(request), sender="z0n0",
                        cert=bad_cert(dep, variant, Z0, body))
    inject(dep, "z0n0", "z2n0", prepared, SETTLE_MS)
    assert txn.prepared is None and not txn.finalized
    assert all(not n.sync.executed_results for n in dep.nodes.values())
    assert_booked(monitor, "cross-prepared", "z0n0")


def test_prepared_with_valid_certificate_commits_the_destination():
    dep = build_clustered()
    monitor = monitored(dep)
    txn = pending_destination(dep)
    request = txn.request_env.payload
    body = commit_body(SRC, GENESIS_BALLOT, digest((request,)))
    prepared = Prepared(view=0, src_ballot=SRC,
                        src_prev_ballot=GENESIS_BALLOT,
                        request_digest=digest(request), sender="z0n0",
                        cert=cert_of(dep, Z0, body))
    inject(dep, "z0n0", "z2n0", prepared, SETTLE_MS)
    assert txn.finalized
    assert all(n.sync.executed_results for n in dep.zone_nodes("z3"))
    assert monitor.violations == []


def cross_commit(dep, env, cert_dst):
    digest_ = digest((env.payload,))
    return CrossCommit(
        view=0, dst_ballot=DST, dst_prev_ballot=GENESIS_BALLOT,
        src_ballot=SRC, src_prev_ballot=GENESIS_BALLOT, request=env,
        cert_dst=cert_dst, sender="z2n0",
        cert_src=cert_of(dep, Z0, commit_body(SRC, GENESIS_BALLOT, digest_)))


@pytest.mark.parametrize("variant", sorted(BAD_CERTS))
def test_cross_commit_with_bad_certificate_is_refused(variant):
    dep = build_clustered()
    dep.add_client("c1", "z0")
    monitor = monitored(dep)
    env = signed_cross_migration(dep)
    body = commit_body(DST, GENESIS_BALLOT, digest((env.payload,)))
    # z3n1 sits in the destination cluster: it judges the dst half.
    inject(dep, "z2n0", "z3n1",
           cross_commit(dep, env, bad_cert(dep, variant, Z2, body)))
    assert nothing_ordered(dep)
    assert_booked(monitor, "cross-commit", "z2n0")


def test_cross_commit_with_valid_certificate_is_executed():
    dep = build_clustered()
    dep.add_client("c1", "z0")
    monitor = monitored(dep)
    env = signed_cross_migration(dep)
    body = commit_body(DST, GENESIS_BALLOT, digest((env.payload,)))
    inject(dep, "z2n0", "z3n1", cross_commit(dep, env, cert_of(dep, Z2, body)))
    node = dep.nodes["z3n1"]
    assert node.sync.result_for(DST, "c1")[0] == "migrated"
    assert node.metadata.client_zone["c1"] == "z2"
    # (The monitor does notice that no ACCEPTED quorum preceded this
    # hand-made commit; the certificate itself is in order.)
    assert "cert-invalid" not in {v.kind for v in monitor.violations}
