"""Failure-handling tests (paper §V-A): crashed primaries mid-protocol,
response-query recovery, and liveness guarantees (Lemma 5.6)."""

from repro.obs.bus import Instrumentation
from tests.conftest import drive_to_completion, small_ziziphus


def test_local_view_change_inside_a_zone(ziziphus3):
    dep = ziziphus3
    client = dep.add_client("c1", "z1")
    # Crash z1's primary before the client's first local transaction.
    dep.nodes["z1n0"].crash()
    records = drive_to_completion(dep, client,
                                  [("local", ("deposit", 5))],
                                  step_ms=60_000)
    assert records[0].result == ("ok", 10_005)
    for node in dep.zone_nodes("z1")[1:]:
        assert node.replica.view >= 1


def test_migration_survives_crashed_follower_zone_primary(ziziphus3):
    dep = ziziphus3
    client = dep.add_client("c1", "z0")
    dep.nodes["z1n0"].crash()  # a follower zone's primary
    records = drive_to_completion(dep, client, [("migrate", "z2")],
                                  step_ms=60_000)
    assert records[0].result == ("migrated", "ok", "z2")
    # z1's survivors replaced their primary to keep endorsing.
    views = [n.replica.view for n in dep.zone_nodes("z1")[1:]]
    assert all(v >= 1 for v in views)


def test_follower_backups_ask_before_they_suspect(ziziphus3):
    """A follower zone's primary dies before it opens the ACCEPTED round.
    Its backups watch that round as every round is watched
    (``EndorsementManager.watch``): they ask the zone for the certificate
    (``EndorseQuery``) before they suspect, and the zone changes view
    once."""
    dep = ziziphus3
    obs = Instrumentation(recording=True).attach(dep)
    dep.nodes["z1n0"].crash()
    client = dep.add_client("c1", "z0")
    dep.sim.schedule(0.0, client.submit_migration, "z2")
    dep.run(5_000)
    assert client.completed[0].result == ("migrated", "ok", "z2")
    backups = dep.zone_nodes("z1")[1:]
    sent = [e.fields["msg"] for e in obs.events if e.kind == "net.send"
            and e.node in {node.node_id for node in backups}]
    assert "EndorseQuery" in sent and "ViewChange" in sent
    assert sent.index("EndorseQuery") < sent.index("ViewChange")
    assert [node.replica.view for node in backups] == [1, 1, 1]


def test_migration_survives_crashed_global_primary(ziziphus3):
    dep = ziziphus3
    client = dep.add_client("c1", "z1")
    dep.nodes["z0n0"].crash()  # the stable leader zone's primary
    records = drive_to_completion(dep, client, [("migrate", "z2")],
                                  step_ms=60_000, max_steps=30)
    assert records[0].result == ("migrated", "ok", "z2")
    for node in dep.zone_nodes("z0")[1:]:
        assert node.replica.view >= 1


def test_migration_survives_crashed_source_zone_primary(ziziphus3):
    """The source primary runs the data migration protocol; its failure
    must not lose the client's records (STATE re-driven after the view
    change, per the §V-A response-query path)."""
    dep = ziziphus3
    client = dep.add_client("c1", "z1")
    drive_to_completion(dep, client, [("local", ("deposit", 77))])
    dep.nodes["z1n0"].crash()  # source zone primary
    records = drive_to_completion(dep, client, [("migrate", "z2")],
                                  step_ms=60_000, max_steps=30)
    assert records[0].result == ("migrated", "ok", "z2")
    for node in dep.zone_nodes("z2"):
        assert node.app.balance_of("c1") == 10_077


def test_commit_resend_via_response_query(ziziphus3):
    """A zone partitioned away during the commit broadcast catches up via
    RESPONSE-QUERY once healed (Lemma 5.6: majority suffices)."""
    dep = ziziphus3
    client = dep.add_client("c1", "z0")
    z2 = [n.node_id for n in dep.zone_nodes("z2")]
    reachable = [n for n in dep.network.node_ids if n not in z2]
    dep.network.set_partition([set(reachable), set(z2)])
    records = drive_to_completion(dep, client, [("migrate", "z1")])
    # Majority (z0, z1) suffices to commit despite z2 being cut off.
    assert records[0].result == ("migrated", "ok", "z1")
    assert all(not n.sync.executed_results for n in dep.zone_nodes("z2"))
    dep.network.set_partition(None)
    # The next global transaction names the missed ballot as predecessor;
    # z2 detects the gap and fetches the missing COMMIT via RESPONSE-QUERY.
    records = drive_to_completion(dep, client, [("migrate", "z2")])
    assert records[0].result == ("migrated", "ok", "z2")
    dep.run(dep.sim.now + 10_000)
    for node in dep.zone_nodes("z2"):
        assert node.metadata.client_zone["c1"] == "z2", \
            "partitioned zone should catch up after healing"
        assert node.metadata.migrations_per_client["c1"] == 2, \
            "the missed migration must be executed too, in order"


def test_no_progress_without_zone_majority(ziziphus3):
    """Lemma 5.6's precondition: with only one zone reachable, global
    transactions cannot complete (but nothing diverges)."""
    dep = ziziphus3
    client = dep.add_client("c1", "z0")
    z0 = {n.node_id for n in dep.zone_nodes("z0")} | {"c1"}
    dep.network.set_partition([z0])
    records = drive_to_completion(dep, client, [("migrate", "z1")],
                                  step_ms=10_000, max_steps=2)
    assert records == []
    assert all(not n.sync.executed_results for n in dep.nodes.values())
    # Heal: the still-pending request eventually completes.
    dep.network.set_partition(None)
    dep.run(dep.sim.now + 90_000)
    assert client.current_zone == "z1"


def test_client_retransmission_reaches_new_primary(ziziphus3):
    dep = ziziphus3
    client = dep.add_client("c1", "z2")
    dep.nodes["z2n0"].crash()
    # Local request: first send hits the dead primary; the retransmission
    # multicasts to the zone, which relays and replaces the primary.
    records = drive_to_completion(dep, client, [("local", ("deposit", 1))],
                                  step_ms=60_000)
    assert records[0].result == ("ok", 10_001)
