"""PBFT checkpointing and garbage collection tests."""

from repro.storage import Checkpoint, state_root
from tests.test_pbft_normal import build_group, make_client, run_ops


def test_checkpoint_becomes_stable_and_gcs_slots():
    sim, net, keys, group, nodes = build_group(checkpoint_period=4,
                                               water_mark_window=64)
    client = make_client(sim, net, keys, group)
    ops = [("open", 100)] + [("deposit", 1)] * 7
    done = run_ops(sim, client, ops)
    assert len(done) == 8
    for node in nodes:
        replica = node.replica
        stable = replica.checkpoints.stable
        assert stable is not None
        assert stable.sequence == 8
        # Slots at or below the stable checkpoint are collected.
        assert all(seq > stable.sequence for seq in replica.slots)
        assert replica.low_water_mark == 8


def test_checkpoint_snapshot_matches_state():
    sim, net, keys, group, nodes = build_group(checkpoint_period=2)
    client = make_client(sim, net, keys, group)
    run_ops(sim, client, [("open", 100), ("deposit", 50)])
    stable = nodes[0].replica.checkpoints.stable
    assert stable.snapshot["client/c1/balance"] == 150
    assert stable.state_digest == nodes[0].replica.app.state_digest()


def test_water_marks_gate_the_primary():
    sim, net, keys, group, nodes = build_group(checkpoint_period=4,
                                               water_mark_window=8)
    client = make_client(sim, net, keys, group)
    ops = [("open", 1)] + [("deposit", 1)] * 15
    done = run_ops(sim, client, ops, until=120_000)
    # All requests execute: checkpoints advance the window as it fills.
    assert len(done) == 16
    assert all(n.replica.last_executed == 16 for n in nodes)


def test_out_of_period_checkpoint_generation():
    sim, net, keys, group, nodes = build_group(checkpoint_period=1000)
    client = make_client(sim, net, keys, group)
    run_ops(sim, client, [("open", 10)])
    # Ziziphus triggers checkpoints on migration requests regardless of
    # the period; emulate that call on every replica.
    for node in nodes:
        node.replica.checkpoints.generate(node.replica.last_executed)
    sim.run(until=sim.now + 5_000)
    for node in nodes:
        assert node.replica.checkpoints.stable is not None
        assert node.replica.checkpoints.stable.sequence == 1


def test_forged_snapshot_leaves_data_and_root_untouched():
    sim, net, keys, group, nodes = build_group(checkpoint_period=1000)
    client = make_client(sim, net, keys, group)
    run_ops(sim, client, [("open", 100), ("deposit", 50)])
    replica = nodes[1].replica
    data, root = replica.app.snapshot(), replica.app.state_digest()
    claimed = state_root({**data, "client/c1/balance": 175})
    # The snapshot shipped under a vouched-for root is not the one the
    # root was taken over.
    replica._adopt_checkpoint(Checkpoint(
        sequence=9, state_digest=claimed,
        snapshot={**data, "client/c1/balance": 10**9}))
    assert replica.app.snapshot() == data
    assert replica.app.state_digest() == root == state_root(data)
    assert replica.last_executed == 2
    # Writes after the rejected adoption still move the root correctly.
    replica.app.execute(("deposit", 1), "c1")
    assert replica.app.state_digest() == state_root(replica.app.snapshot())
    # The genuine snapshot for that root is adopted.
    replica._adopt_checkpoint(Checkpoint(
        sequence=9, state_digest=claimed,
        snapshot={**data, "client/c1/balance": 175}))
    assert replica.last_executed == 9
    assert replica.app.state_digest() == claimed
