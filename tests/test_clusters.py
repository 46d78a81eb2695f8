"""Cross-cluster data synchronization tests (paper §VI)."""

import pytest

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


def test_cross_cluster_migration_end_to_end():
    dep = build_clustered()
    client = dep.add_client("c1", "z0")
    records = drive_to_completion(dep, client, [
        ("local", ("deposit", 9)),
        ("migrate", "z2"),            # cluster-0 -> cluster-1
        ("local", ("balance",)),
    ])
    assert records[1].result == ("migrated", "ok", "z2")
    assert records[2].result == ("ok", 10_009)
    assert client.current_zone == "z2"
    for node in dep.zone_nodes("z2"):
        assert node.locks.is_current("c1")
        assert node.app.balance_of("c1") == 10_009
    for node in dep.zone_nodes("z0"):
        assert not node.locks.is_current("c1")


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
