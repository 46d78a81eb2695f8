"""End-to-end tests for the comparison baselines."""

import pytest

from repro.baselines.flat_pbft import FlatPBFTConfig, build_flat_pbft
from repro.baselines.metadata_app import CombinedApp
from repro.baselines.steward import build_steward
from repro.baselines.two_level_pbft import TwoLevelConfig, build_two_level
from repro.app.banking import BankingApp
from repro.core.deployment import ZiziphusConfig
from repro.core.metadata import PolicySet
from tests.conftest import fast_pbft, fast_sync


# ----------------------------------------------------------------------
# CombinedApp
# ----------------------------------------------------------------------
def test_combined_app_routes_migrations_to_metadata():
    app = CombinedApp(BankingApp())
    app.metadata.register_client("c1", "z0")
    app.execute(("open", 10), "c1")
    assert app.execute(("migrate", "c1", "z0", "z1"), "c1") == \
        ("migrated", "ok", "z1")
    assert app.execute(("deposit", 5), "c1") == ("ok", 15)
    snap = app.snapshot()
    other = CombinedApp(BankingApp())
    other.restore(snap)
    assert other.state_digest() == app.state_digest()


# ----------------------------------------------------------------------
# Flat PBFT
# ----------------------------------------------------------------------
def flat(num_zones=3):
    return build_flat_pbft(FlatPBFTConfig(num_zones=num_zones, f_per_zone=1,
                                          pbft=fast_pbft()))


def test_flat_pbft_node_count_is_z_minus_one_fewer():
    dep = flat(num_zones=3)
    # Ziziphus: 3 * 4 = 12 nodes; flat PBFT: 3*3*1 + 1 = 10 (Z-1 fewer).
    assert len(dep.nodes) == 10
    assert dep.total_f == 3
    dep5 = flat(num_zones=5)
    assert len(dep5.nodes) == 16


def test_flat_pbft_processes_everything_globally():
    dep = flat()
    client = dep.add_client("c1", "z1")
    done = []
    plan = [("deposit", 5), ("migrate", "c1", "z1", "z2"), ("balance",)]

    def advance(record=None):
        if record is not None:
            done.append(record)
        if len(done) < len(plan):
            client.submit(plan[len(done)])

    client.on_complete = advance
    dep.sim.schedule(0.0, advance)
    dep.run(60_000)
    assert [r.result for r in done] == [
        ("ok", 10_005), ("migrated", "ok", "z2"), ("ok", 10_005)]
    digests = {n.replica.app.state_digest() for n in dep.nodes.values()}
    assert len(digests) == 1


def test_flat_pbft_latency_is_wan_scale():
    dep = flat()
    client = dep.add_client("c1", "z0")
    client.on_complete = lambda record: None
    dep.sim.schedule(0.0, client.submit, ("deposit", 1))
    dep.run(30_000)
    assert client.completed
    # Quorums cross regions: latency must be tens of ms, not LAN-scale.
    assert client.completed[0].latency_ms > 20


# ----------------------------------------------------------------------
# Steward
# ----------------------------------------------------------------------
def steward():
    return build_steward(ZiziphusConfig(num_zones=3, f=1, pbft=fast_pbft(),
                                        sync=fast_sync()))


def test_steward_replicates_every_transaction_everywhere():
    dep = steward()
    client = dep.add_client("c1", "z1")
    results = []

    def advance(record=None):
        if record is not None:
            results.append(record)
        if len(results) < 2:
            client.submit_local(("deposit", 5))

    client.on_complete = advance
    dep.sim.schedule(0.0, advance)
    dep.run(60_000)
    assert [r.result for r in results] == [("ok", 10_005), ("ok", 10_010)]
    # Full replication: every zone holds the client's balance.
    for node in dep.nodes.values():
        assert node.app.balance_of("c1") == 10_010


def test_build_steward_leaves_the_callers_sync_config_alone():
    """The same SyncConfig often goes on to build the Ziziphus side of a
    comparison; Steward's no-checkpoint rule must not leak into it."""
    config = ZiziphusConfig(sync=fast_sync(checkpoint_on_migration=True))
    dep = build_steward(config)
    assert dep.config.sync.checkpoint_on_migration is False
    assert config.sync.checkpoint_on_migration is True


def test_steward_local_txn_pays_global_latency():
    dep = steward()
    client = dep.add_client("c1", "z0")
    client.on_complete = lambda record: None
    dep.sim.schedule(0.0, client.submit_local, ("deposit", 1))
    dep.run(30_000)
    assert client.completed[0].latency_ms > 20


# ----------------------------------------------------------------------
# Two-level PBFT
# ----------------------------------------------------------------------
def two_level():
    return build_two_level(TwoLevelConfig(num_zones=3, f=1,
                                          pbft=fast_pbft(),
                                          global_pbft=fast_pbft()))


def test_two_level_top_group_is_3f_plus_1():
    dep = two_level()
    # 3 zones => F=1 => 4 global participants (3 reps + 1 extra in CA).
    assert len(dep.global_group) == 4
    assert dep.global_f == 1
    assert "gx0" in dep.global_group
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        build_two_level(TwoLevelConfig(num_zones=4, f=1, pbft=fast_pbft(),
                                       global_pbft=fast_pbft()))


def test_two_level_migration_moves_data_and_metadata():
    dep = two_level()
    client = dep.add_client("c1", "z0")
    results = []
    plan = [("local", ("deposit", 3)), ("migrate", "z1"),
            ("local", ("balance",))]

    def advance(record=None):
        if record is not None:
            results.append(record)
        if len(results) < len(plan):
            kind, arg = plan[len(results)]
            if kind == "local":
                client.submit_local(arg)
            else:
                client.submit_migration(arg)

    client.on_complete = advance
    dep.sim.schedule(0.0, advance)
    dep.run(90_000)
    assert [r.result for r in results] == [
        ("ok", 10_003), ("migrated", "ok", "z1"), ("ok", 10_003)]
    for node in dep.zone_nodes("z1"):
        assert node.app.balance_of("c1") == 10_003
        assert node.metadata.client_zone["c1"] == "z1"
    for node in dep.zone_nodes("z0"):
        assert not node.locks.is_current("c1")


def test_two_level_policy_rejection():
    dep = build_two_level(TwoLevelConfig(
        num_zones=3, f=1, pbft=fast_pbft(), global_pbft=fast_pbft(),
        policies=PolicySet(max_migrations_per_client=0)))
    client = dep.add_client("c1", "z0")
    client.on_complete = lambda record: None
    dep.sim.schedule(0.0, client.submit_migration, "z1")
    dep.run(60_000)
    assert client.completed
    assert client.completed[0].result[0] == "rejected"
    assert client.current_zone == "z0"
