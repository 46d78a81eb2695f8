"""PBFT under Byzantine behaviour: safety always, liveness with <= f faults."""

import pytest

from repro.app.banking import BankingApp
from repro.crypto.digest import digest
from repro.crypto.keys import KeyRegistry
from repro.messages.base import sign_message
from repro.messages.client import ClientRequest
from repro.messages.pbft import PrePrepare
from repro.pbft.faults import make_behavior
from repro.pbft.node import PBFTNode
from repro.pbft.replica import PBFTConfig
from repro.sim.events import Simulator
from repro.sim.latency import LatencyModel, Region
from repro.sim.network import Network
from tests.conftest import small_ziziphus
from tests.test_pbft_normal import build_group, make_client, run_ops


def build_byzantine_group(behaviors, n=4, f=1, seed=13):
    sim = Simulator()
    net = Network(sim, LatencyModel(), seed=seed)
    keys = KeyRegistry(seed=seed)
    group = tuple(f"n{i}" for i in range(n))
    config = PBFTConfig(batch_size=1, batch_timeout_ms=0.5,
                        request_timeout_ms=150.0,
                        view_change_timeout_ms=300.0)
    nodes = []
    for i, nid in enumerate(group):
        behavior = make_behavior(behaviors.get(i, "honest"))
        node = PBFTNode(sim, net, keys, nid, group, f=f, app=BankingApp(),
                        config=config, behavior=behavior)
        net.register(node, Region.CALIFORNIA)
        nodes.append(node)
    return sim, net, keys, group, nodes


def assert_honest_agree(nodes, honest_indices, balance, min_agreeing=None):
    """Honest replicas never diverge; at least ``min_agreeing`` of them
    (default: all) executed up to ``balance``.

    Under an equivocating primary one honest replica can legitimately be
    left *behind* (it refuses the forked digest and waits for a state
    transfer); it must simply never execute something different.
    """
    if min_agreeing is None:
        min_agreeing = len(honest_indices)
    caught_up = []
    for i in honest_indices:
        replica = nodes[i].replica
        observed = replica.app.balance_of("c1")
        assert observed in (0, balance) or observed <= balance
        if observed == balance:
            caught_up.append(i)
    assert len(caught_up) >= min_agreeing
    digests = {nodes[i].replica.app.state_digest() for i in caught_up}
    assert len(digests) == 1


@pytest.mark.parametrize("behavior", ["silent", "equivocate",
                                      "corrupt-signature"])
def test_byzantine_primary_cannot_stop_or_split_the_group(behavior):
    sim, net, keys, group, nodes = build_byzantine_group({0: behavior})
    client = make_client(sim, net, keys, group)
    done = run_ops(sim, client, [("open", 100), ("deposit", 10),
                                 ("deposit", 10)])
    assert [r.result for r in done] == [("ok", 100), ("ok", 110), ("ok", 120)]
    # 2f honest replicas (enough for the client's f+1 reply quorum) must
    # have executed; none may diverge.
    assert_honest_agree(nodes, (1, 2, 3), 120, min_agreeing=2)


@pytest.mark.parametrize("behavior", ["silent", "equivocate",
                                      "corrupt-signature"])
def test_byzantine_backup_is_harmless(behavior):
    sim, net, keys, group, nodes = build_byzantine_group({2: behavior})
    client = make_client(sim, net, keys, group)
    done = run_ops(sim, client, [("open", 50), ("deposit", 5)])
    assert [r.result for r in done] == [("ok", 50), ("ok", 55)]
    assert_honest_agree(nodes, (0, 1, 3), 55)
    # No view change needed: the primary is honest.
    assert all(nodes[i].replica.view == 0 for i in (0, 1, 3))


def test_f_byzantine_of_7_tolerated():
    sim, net, keys, group, nodes = build_byzantine_group(
        {0: "silent", 3: "equivocate"}, n=7, f=2)
    client = make_client(sim, net, keys, group, f=2)
    done = run_ops(sim, client, [("open", 10), ("deposit", 1)], until=120_000)
    assert [r.result for r in done] == [("ok", 10), ("ok", 11)]
    assert_honest_agree(nodes, (1, 2, 4, 5, 6), 11)


def test_more_than_f_faults_lose_liveness_but_never_safety():
    sim, net, keys, group, nodes = build_byzantine_group(
        {0: "silent", 1: "silent"}, n=4, f=1)
    client = make_client(sim, net, keys, group)
    done = run_ops(sim, client, [("open", 10)], until=30_000, )
    # No quorum of 3 honest nodes exists: the request cannot complete...
    assert done == []
    # ...but the two honest replicas never diverge.
    assert nodes[2].replica.app.state_digest() == \
        nodes[3].replica.app.state_digest()
    assert nodes[2].replica.executed_requests == 0


def test_equivocating_primary_cannot_commit_two_values():
    """Core safety: no two honest replicas execute different batches at
    the same sequence, even with an equivocating primary."""
    sim, net, keys, group, nodes = build_byzantine_group({0: "equivocate"})
    clients = [make_client(sim, net, keys, group, client_id=f"c{i}")
               for i in range(4)]
    for client in clients:
        client.submit(("open", 10))
    sim.run(until=60_000)
    # Collect per-sequence batch digests from every honest replica.
    per_sequence = {}
    for node in nodes[1:]:
        replica = node.replica
        for record in replica.client_table.items():
            pass
        for seq, slot in replica.slots.items():
            if slot.executed and slot.batch_digest is not None:
                per_sequence.setdefault(seq, set()).add(slot.batch_digest)
    for seq, digests in per_sequence.items():
        assert len(digests) == 1, f"divergent commit at sequence {seq}"


def _signed_request(keys, client_id, timestamp, operation):
    return sign_message(keys, client_id, ClientRequest(
        operation=operation, timestamp=timestamp, sender=client_id))


@pytest.mark.parametrize("delay_ms", [0.5, 1.0, 1.5])
def test_two_requests_a_client_signs_under_one_timestamp_are_one(delay_ms):
    """D20: c0 sends ("deposit", 5) at timestamp 7 to z0's primary and,
    ``delay_ms`` later, ("deposit", 6) at timestamp 7 to the three
    backups. A request is named by its client and timestamp, so the zone
    executes one of them and keeps its primary. Named by their digests,
    both executed at 0.5 and 1.0 ms; at 1.5 ms the backups' timers for
    the second one, which the primary answered from its client table,
    deposed it as well."""
    deployment = small_ziziphus()
    deployment.add_client("c0", "z0")
    network, keys = deployment.network, deployment.keys
    first, second = (_signed_request(keys, "c0", 7, ("deposit", amount))
                     for amount in (5, 6))
    network.send("c0", "z0n0", first)
    for backup in ("z0n1", "z0n2", "z0n3"):
        deployment.sim.schedule(delay_ms, network.send, "c0", backup, second)
    deployment.sim.run(until=5_000.0)
    for node in deployment.zone_nodes("z0"):
        assert node.replica.view == 0
        assert node.app.balance_of("c0") == 10_005


def _pre_prepare(keys, sequence, batch):
    """Primary n0's signed pre-prepare of ``batch`` at ``sequence``."""
    return sign_message(keys, "n0", PrePrepare(
        view=0, sequence=sequence,
        batch_digest=digest(tuple(env.payload for env in batch)),
        batch=batch, sender="n0"))


def test_a_request_a_faulty_primary_batches_twice_executes_once():
    """Primary n0 pre-prepares c1's deposit twice in the batch at
    sequence 2. Each backup executes it once."""
    sim, net, keys, group, nodes = build_byzantine_group({})
    make_client(sim, net, keys, group)
    opened = _signed_request(keys, "c1", 1, ("open", 100))
    deposit = _signed_request(keys, "c1", 2, ("deposit", 5))
    for sequence, batch in enumerate([(opened,), (deposit, deposit)],
                                     start=1):
        for backup in group[1:]:
            net.send("n0", backup, _pre_prepare(keys, sequence, batch))
    sim.run(until=1_000.0)
    for node in nodes[1:]:
        replica = node.replica
        assert (replica.view, replica.last_executed) == (0, 2)
        assert replica.app.balance_of("c1") == 105
        assert replica.executed_requests == 2
        assert replica.client_table["c1"] == (2, ("ok", 105))


def test_a_request_reordered_after_a_catch_up_executes_alike_everywhere():
    """n3 is cut off while the zone executes c1's six requests, then
    catches up from the stable checkpoint at 6. Primary n0 pre-prepares
    the deposit executed at 2 again, at 7. Whether it ran before is in no
    checkpoint, so every backup executes it — n3 as well as the two that
    saw it run — and their states stay equal."""
    sim, net, keys, group, nodes = build_group(checkpoint_period=2)
    make_client(sim, net, keys, group)
    requests = [_signed_request(keys, "c1", 1, ("open", 100))] + [
        _signed_request(keys, "c1", ts, ("deposit", 5)) for ts in range(2, 7)]
    net.set_partition([("c1", "n0", "n1", "n2"), ("n3",)])
    for at, request in enumerate(requests[:4]):
        sim.schedule(50.0 * at, net.send, "c1", "n0", request)
    sim.run(until=1_000.0)
    net.set_partition(None)
    for at, request in enumerate(requests[4:]):
        sim.schedule(50.0 * at, net.send, "c1", "n0", request)
    sim.run(until=2_000.0)
    caught_up = nodes[3].replica
    assert caught_up.last_executed == 6
    assert caught_up.client_table == {}  # no slot executed here
    for backup in group[1:]:
        net.send("n0", backup, _pre_prepare(keys, 7, (requests[1],)))
    sim.run(until=3_000.0)
    for node in nodes[1:]:
        assert node.replica.last_executed == 7
        assert node.replica.app.balance_of("c1") == 130
    assert len({node.replica.app.state_digest() for node in nodes[1:]}) == 1
