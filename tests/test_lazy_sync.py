"""Lazy synchronization tests (paper §V-B).

Zones generate checkpoints when migration requests arrive; stable
checkpoints ride on ACCEPTED/COMMIT messages so every zone replicates
every other zone's last stable state. If an entire zone then fails, its
data up to the last shared checkpoint is recoverable elsewhere.
"""

from repro.core.deployment import ZiziphusConfig, build_ziziphus
from repro.messages.sync import CheckpointRef
from repro.storage import state_root
from tests.conftest import drive_to_completion, fast_pbft, fast_sync


def build_lazy():
    config = ZiziphusConfig(
        num_zones=3, f=1, pbft=fast_pbft(checkpoint_period=2),
        sync=fast_sync(checkpoint_on_migration=True))
    return build_ziziphus(config)


def test_checkpoints_ride_on_global_commits():
    dep = build_lazy()
    client = dep.add_client("c1", "z1")
    other = dep.add_client("c2", "z1")
    drive_to_completion(dep, other, [("local", ("deposit", 42)),
                                     ("local", ("deposit", 1))])
    records = drive_to_completion(dep, client, [("migrate", "z2")])
    assert records[0].result[0] == "migrated"
    dep.run(dep.sim.now + 10_000)
    # Every node now holds some other zones' stable checkpoints.
    holders = [node for node in dep.nodes.values() if node.remote_states]
    assert holders, "no node stored any remote checkpoint"
    # Specifically, z1's state (including c2's balance) is replicated
    # outside z1 on some node.
    replicated = [node for node in dep.nodes.values()
                  if node.zone_info.zone_id != "z1"
                  and "z1" in node.remote_states]
    assert replicated


def test_failed_zone_data_recoverable_from_remote_checkpoint():
    dep = build_lazy()
    client = dep.add_client("c1", "z1")
    bystander = dep.add_client("c2", "z1")
    drive_to_completion(dep, bystander, [("local", ("deposit", 500)),
                                         ("local", ("deposit", 1))])
    drive_to_completion(dep, client, [("migrate", "z0")])
    dep.run(dep.sim.now + 10_000)
    # Disaster: all of z1 fails.
    for node in dep.zone_nodes("z1"):
        node.crash()
    # Another zone holds z1's last stable snapshot with c2's balance.
    snapshots = [node.remote_states["z1"].snapshot
                 for node in dep.nodes.values()
                 if not node.crashed and "z1" in node.remote_states]
    assert snapshots
    best = max(snapshots, key=lambda s: s.get("client/c2/balance", 0))
    assert best["client/c2/balance"] == 10_501


def test_newer_checkpoints_replace_older_ones():
    dep = build_lazy()
    client = dep.add_client("c1", "z1")
    bystander = dep.add_client("c2", "z1")
    drive_to_completion(dep, client, [("migrate", "z0")])
    dep.run(dep.sim.now + 5_000)
    # A second migration makes z1's (now stable) checkpoint travel.
    drive_to_completion(dep, client, [("migrate", "z2")])
    dep.run(dep.sim.now + 5_000)
    observer = dep.nodes["z0n1"]
    first = observer.remote_states.get("z1")
    drive_to_completion(dep, bystander, [("local", ("deposit", 5))] * 4)
    drive_to_completion(dep, client, [("migrate", "z1")])
    dep.run(dep.sim.now + 5_000)
    second = observer.remote_states.get("z1")
    assert first is not None and second is not None
    assert second.sequence >= first.sequence


def test_checkpointing_off_means_no_remote_states():
    config = ZiziphusConfig(num_zones=3, f=1, pbft=fast_pbft(),
                            sync=fast_sync(checkpoint_on_migration=False))
    dep = build_ziziphus(config)
    client = dep.add_client("c1", "z0")
    drive_to_completion(dep, client, [("migrate", "z1")])
    assert all(not node.remote_states for node in dep.nodes.values())


def test_tampered_checkpoint_ref_is_dropped_and_displaces_nothing():
    """Refs ride outside the certificates that carry them: one whose
    snapshot is not what its root was taken over must not be stored, even
    at a higher sequence than the genuine one held."""
    dep = build_lazy()
    observer = dep.nodes["z0n1"]
    state = {"client/c1/balance": 10, "client/c2/balance": 500}
    genuine = CheckpointRef(zone_id="z1", sequence=4,
                            state_digest=state_root(state), snapshot=state)
    observer.store_remote_checkpoint(genuine)
    assert observer.remote_states["z1"] is genuine
    tampered = [
        {**state, "client/c2/balance": 501},                    # one value
        {**state, "client/c3/balance": 0},                      # one more key
        {"client/c1/balance": 500, "client/c2/balance": 10},    # swapped
    ]
    for snapshot in tampered:
        observer.store_remote_checkpoint(CheckpointRef(
            zone_id="z1", sequence=8, state_digest=genuine.state_digest,
            snapshot=snapshot))
        assert observer.remote_states["z1"] is genuine
    newer = CheckpointRef(zone_id="z1", sequence=8,
                          state_digest=state_root(tampered[0]),
                          snapshot=tampered[0])
    observer.store_remote_checkpoint(newer)
    assert observer.remote_states["z1"] is newer
