"""Integration tests for the data synchronization protocol (Algorithm 1)."""

import dataclasses
import inspect
import re

import pytest

from repro.core import sync_protocol
from repro.core.metadata import PolicySet
from repro.messages.sync import Ballot
from tests.conftest import drive_to_completion, small_ziziphus


def test_migration_commits_on_all_zones(ziziphus3):
    dep = ziziphus3
    client = dep.add_client("c1", "z0")
    records = drive_to_completion(dep, client, [("migrate", "z1")])
    assert records[0].result == ("migrated", "ok", "z1")
    # Execution phase ran on every node of every zone: meta-data agrees.
    digests = {n.metadata.state_digest() for n in dep.nodes.values()}
    assert len(digests) == 1
    for node in dep.nodes.values():
        assert node.metadata.client_zone["c1"] == "z1"
        assert node.metadata.migrations_per_client["c1"] == 1


def test_full_protocol_without_stable_leader():
    dep = small_ziziphus()
    dep.config.sync.stable_leader = False
    for node in dep.nodes.values():
        node.sync.config.stable_leader = False
    client = dep.add_client("c1", "z0")
    records = drive_to_completion(dep, client, [("migrate", "z2")])
    assert records[0].result == ("migrated", "ok", "z2")
    # The destination zone was the initiator (no stable leader).
    leader = dep.nodes["z2n0"]
    assert leader.sync.migrations_executed >= 1


def test_stable_leader_is_faster_than_leader_election():
    """With the initiator zone held fixed (migrate *to* the leader zone so
    both modes coordinate from z0), skipping propose/promise must save two
    top-level phases."""
    latencies = {}
    for stable in (True, False):
        dep = small_ziziphus()
        for node in dep.nodes.values():
            node.sync.config.stable_leader = stable
        dep.config.sync.stable_leader = stable
        client = dep.add_client("c1", "z1")
        records = drive_to_completion(dep, client, [("migrate", "z0")])
        assert records[0].result[0] == "migrated"
        latencies[stable] = records[0].latency_ms
    assert latencies[True] < latencies[False]


def test_migrations_execute_in_ballot_chain_order(ziziphus3):
    dep = ziziphus3
    clients = [dep.add_client(f"c{i}", "z0") for i in range(4)]
    for client in clients:
        client.on_complete = lambda record: None
        dep.sim.schedule(0.0, client.submit_migration, "z1")
    dep.run(60_000)
    for client in clients:
        assert client.current_zone == "z1"
    # Executed ballots form one chain: prev pointers are all distinct and
    # every node saw the same execution results.
    reference = dep.nodes["z0n0"].sync.executed_results
    for node in dep.nodes.values():
        assert node.sync.executed_results.keys() == reference.keys()


def test_policy_rejection_is_network_wide():
    dep = small_ziziphus(policies=PolicySet(max_migrations_per_client=1))
    client = dep.add_client("c1", "z0")
    records = drive_to_completion(dep, client,
                                  [("migrate", "z1"), ("migrate", "z2")])
    assert records[0].result == ("migrated", "ok", "z1")
    assert records[1].result == ("rejected", "migration-limit", "z2")
    assert client.current_zone == "z1"
    for node in dep.nodes.values():
        assert node.metadata.client_zone["c1"] == "z1"
        assert node.metadata.rejected_migrations == 1
    # The client can still transact in its (unchanged) zone.
    records = drive_to_completion(dep, client, [("local", ("balance",))])
    assert records[0].result == ("ok", 10_000)


def test_rejected_migration_restores_source_lock():
    dep = small_ziziphus(policies=PolicySet(max_clients_per_zone=1))
    dep.add_client("blocker", "z1")
    client = dep.add_client("c1", "z0")
    records = drive_to_completion(dep, client, [("migrate", "z1")])
    assert records[0].result[0] == "rejected"
    for node in dep.zone_nodes("z0"):
        assert node.locks.is_current("c1"), \
            "rejected migration must restore the source lock"


def test_lemma_5_5_no_two_ballots_at_one_sequence(ziziphus3):
    """A zone never endorses two different ballots with one sequence
    number (the quorum-intersection argument of Lemma 5.5)."""
    dep = ziziphus3
    node = dep.nodes["z1n0"]
    engine = node.sync
    engine.accepted_seqs[7] = "z0"
    # A rival accept for seq 7 from another zone must not be endorsed.
    rival = Ballot(seq=7, zone_id="z2")
    assert engine.accepted_seqs.get(rival.seq) == "z0"
    verdict = engine.accepted_seqs.get(rival.seq)
    assert verdict != rival.zone_id


def test_request_dedup_returns_cached_result(ziziphus3):
    dep = ziziphus3
    client = dep.add_client("c1", "z0")
    records = drive_to_completion(dep, client, [("migrate", "z1")])
    assert records[0].result[0] == "migrated"
    leader = dep.primary_of(dep.directory.cluster_zones("cluster-0")[0])
    executed_before = leader.sync.migrations_executed
    # Re-deliver the identical request (client retransmission).
    from repro.crypto.digest import digest
    from repro.messages.base import Signed
    from repro.messages.client import MigrationRequest
    request = MigrationRequest(operation=("migrate", "c1", "z0", "z1"),
                               timestamp=1, sender="c1",
                               source_zone="z0", dest_zone="z1")
    env = Signed(request, dep.keys.sign("c1", digest(request)))
    dep.network.send("c1", leader.node_id, env)
    dep.run(dep.sim.now + 10_000)
    assert leader.sync.migrations_executed == executed_before


def test_global_batching_shares_one_ballot():
    dep = small_ziziphus()
    for node in dep.nodes.values():
        node.sync.config.global_batch_size = 8
        node.sync.config.global_batch_timeout_ms = 5.0
    clients = [dep.add_client(f"c{i}", "z0") for i in range(6)]
    for client in clients:
        dep.sim.schedule(0.0, client.submit_migration, "z1")
    dep.run(60_000)
    assert all(c.current_zone == "z1" for c in clients)
    leader = dep.nodes["z0n0"]
    # Six migrations were ordered under very few ballots.
    executed_ballots = [b for b, results in leader.sync.executed_results.items()
                        if results]
    assert len(executed_ballots) <= 2


def test_a_ballot_holds_one_timer():
    """Census: the sync engine's failure handling is one deadline per
    ballot (``SyncEngine._arm_deadline``); the backups' watches are
    ``EndorsementManager.watch``'s. ``GlobalTxnState`` has exactly one
    field a timer is kept in, and the engine arms three kinds of timer:
    the batch timer, the request watch and the ballot's deadline (the
    count CI's lint job prints)."""
    untyped = [f.name for f in dataclasses.fields(sync_protocol.GlobalTxnState)
               if f.type == "Any"]
    source = inspect.getsource(sync_protocol)
    stored = set(re.findall(r"txn\.(\w+) = self\.node\.set_timer\(", source))
    assert untyped == ["deadline"] and stored == {"deadline"}
    assert source.count("set_timer(") == 3


def test_every_node_files_the_requests_of_a_ballot_it_accepts():
    """Each node of every zone files a request under the ballot that
    carries it as it accepts or commits that ballot — not only the
    primary that started it — so a later primary of the initiator zone
    answers a retransmission instead of ordering it again (ROADMAP D7)."""
    dep = small_ziziphus()
    client = dep.add_client("c1", "z1")
    records = drive_to_completion(dep, client, [("migrate", "z2")])
    assert records[0].result[0] == "migrated"
    ballots = {node.sync.request_dedup.get(("c1", 1))
               for node in dep.nodes.values()}
    assert len(ballots) == 1 and None not in ballots


@pytest.mark.parametrize("campaign,name,seed,backend", [
    # z2c0's request 6 committed in 21.z0, then z0's primary crashed; its
    # retransmission reached the new primary z0n1, which proposed it
    # again as 27.z0 just after 26.z0 had moved the client back.
    ("failover", "initiator-crash", 1, "syncbft"),
    # Failed with ``migration-duplicate`` at the parent on seeds 3, 4, 6,
    # 9 and 10 of 1-10.
    ("default", "wan-link-flap", 3, "rotating"),
])
def test_a_new_initiator_primary_does_not_order_a_carried_request_again(
        campaign, name, seed, backend):
    from repro.chaos import CAMPAIGNS, run_scenario
    scenario = next(s for s in CAMPAIGNS[campaign] if s.name == name)
    result = run_scenario(scenario, seed=seed, backend=backend)
    assert result.verdict == "pass", result.reasons


def test_a_commit_round_cut_off_from_its_members_is_led_again():
    """z0's ACCEPTs certify, then two of its four members are cut off
    while its COMMIT endorsements are in flight. No member that missed a
    COMMIT pre-prepare watches that round, and the followers' commit
    queries judge nobody once z0 accepted a newer ballot, so only the
    initiator primary's deadline on its commit round sends it again after
    the heal (at the parent the run stalled there: 24 ``sync.commit``
    rows in its transcript)."""
    from repro.workload.driver import ClosedLoopDriver
    from repro.workload.generator import WorkloadMix
    dep = small_ziziphus(seed=11)
    ClosedLoopDriver(dep, WorkloadMix(global_fraction=0.5),
                     clients_per_zone=2, seed=11).start()
    cut = set(dep.directory.zone("z0").members[-2:])
    dep.sim.schedule(40.0, lambda: dep.network.set_partition(
        [set(dep.network.node_ids) - cut, cut]))
    dep.sim.schedule(1_000.0, dep.network.clear_faults)
    dep.run(3_000.0)
    executed = [len(node.sync.executed_results) for node in dep.nodes.values()]
    assert min(executed) > 20
