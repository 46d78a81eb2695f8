"""Deeper baseline behaviour tests (two-level internals, Steward modes)."""

from repro.analysis.complexity import catch_up_messages
from repro.baselines.steward import build_steward
from repro.baselines.two_level_pbft import (GlobalMsg, TwoLevelConfig,
                                            build_two_level)
from repro.core.deployment import ZiziphusConfig
from tests.conftest import fast_pbft, fast_sync


def two_level(**overrides):
    # The top-level group spans continents: its failure timers must
    # exceed the WAN round trips (Sydney-Paris RTT is 280 ms).
    kwargs = dict(num_zones=3, f=1, pbft=fast_pbft(),
                  global_pbft=fast_pbft(request_timeout_ms=2_000.0,
                                        view_change_timeout_ms=4_000.0))
    kwargs.update(overrides)
    return build_two_level(TwoLevelConfig(**kwargs))


def run_migration(dep, client, dest, timeout=90_000):
    results = []
    client.on_complete = lambda record: results.append(record)
    dep.sim.schedule(0.0, client.submit_migration, dest)
    dep.run(dep.sim.now + timeout)
    return results


def test_extra_participants_have_no_zone_and_no_local_replica():
    dep = two_level()
    gx = dep.nodes["gx0"]
    assert gx.zone_id is None
    assert gx.replica is None
    assert gx.global_replica is not None
    assert gx.endorsement is None


def test_global_messages_from_reps_carry_zone_certificates():
    dep = two_level()
    client = dep.add_client("c1", "z0")
    captured = []
    target = dep.nodes["z1n0"]
    original = target._on_global_msg

    def spy(sender, msg, envelope):
        captured.append((sender, msg))
        original(sender, msg, envelope)

    target._handlers[GlobalMsg] = spy
    results = run_migration(dep, client, "z1")
    assert results and results[0].result[0] == "migrated"
    rep_msgs = [m for s, m in captured if s != "gx0"]
    assert rep_msgs, "the representative must have sent global traffic"
    assert all(m.cert is not None for m in rep_msgs), \
        "representatives' top-level messages must be zone-endorsed"
    gx_msgs = [m for s, m in captured if s == "gx0"]
    assert all(m.cert is None for m in gx_msgs)


def test_two_level_with_threshold_signatures():
    dep = two_level(use_threshold_signatures=True)
    client = dep.add_client("c1", "z0")
    results = run_migration(dep, client, "z2")
    assert results and results[0].result == ("migrated", "ok", "z2")


def test_two_level_five_zones():
    dep = two_level(num_zones=5)
    assert len(dep.global_group) == 7      # 5 reps + F=2 extras
    client = dep.add_client("c1", "z0")
    results = run_migration(dep, client, "z3", timeout=120_000)
    assert results and results[0].result == ("migrated", "ok", "z3")


def test_steward_migration_is_metadata_only():
    dep = build_steward(ZiziphusConfig(num_zones=3, f=1, pbft=fast_pbft(),
                                       sync=fast_sync()))
    client = dep.add_client("c1", "z0")
    results = run_migration(dep, client, "z1")
    assert results and results[0].result[0] == "migrated"
    assert client.current_zone == "z1"
    # Full replication: data was already everywhere, so no state moved.
    assert all(node.migration.migrations_applied <= 1
               for node in dep.nodes.values())
    for node in dep.nodes.values():
        assert node.app.balance_of("c1") == 10_000


def test_steward_interleaves_ops_and_migrations():
    dep = build_steward(ZiziphusConfig(num_zones=3, f=1, pbft=fast_pbft(),
                                       sync=fast_sync()))
    client = dep.add_client("c1", "z2")
    results = []
    plan = [("op", ("deposit", 5)), ("mig", "z0"), ("op", ("deposit", 7)),
            ("op", ("balance",))]

    def advance(record=None):
        if record is not None:
            results.append(record)
        if len(results) < len(plan):
            kind, arg = plan[len(results)]
            if kind == "op":
                client.submit_local(arg)
            else:
                client.submit_migration(arg)

    client.on_complete = advance
    dep.sim.schedule(0.0, advance)
    dep.run(120_000)
    assert results[-1].result == ("ok", 10_012)
    for node in dep.nodes.values():
        assert node.app.balance_of("c1") == 10_012


def test_two_level_top_level_view_change_checks_proofs_through_global_msgs():
    """The top-level group's PBFT travels wrapped in ``GlobalMsg``: gx0
    misses the pre-prepare of the first migration, the group moves to
    view 1, and gx0 fetches the originals behind the proofs (a
    ``ProofFetch`` / ``ProofReply`` pair, zone-endorsed like every other
    top-level message) before it adopts the NEW-VIEW; a second migration
    then commits in view 1. (The NEW-VIEW, multicast and then sent again
    to a member whose VIEW-CHANGE came late, is endorsed once for both
    sends; the second used to take the first one's place.)"""
    dep = two_level()
    client = dep.add_client("c1", "z0")
    multicast = dep.network.multicast

    def lose_global_pre_prepares_to_gx0(src, dsts, message):
        inner = getattr(message.payload, "inner", None)
        if type(inner).__name__ == "PrePrepare":
            dsts = tuple(d for d in dsts if d != "gx0")
        multicast(src, dsts, message)

    dep.network.multicast = lose_global_pre_prepares_to_gx0
    results = run_migration(dep, client, "z1")
    assert results and results[0].result == ("migrated", "ok", "z1")
    dep.network.multicast = multicast
    replicas = [dep.nodes[n].global_replica for n in dep.global_group]
    assert replicas[-1].slots[1].pre_prepare is None
    fetched = []
    dep.network.multicast = lambda src, dsts, message: (
        fetched.append(type(getattr(message.payload, "inner", None)).__name__),
        multicast(src, dsts, message))
    for replica in replicas:
        replica.view_changes.initiate(1)
    dep.run(dep.sim.now + 1_000)
    assert [(r.view, r.view_active) for r in replicas] == [(1, True)] * 4
    assert "ProofFetch" in fetched and "ProofReply" in fetched
    assert replicas[-1].slots[1].batch == replicas[0].slots[1].batch
    results = run_migration(dep, client, "z2")
    assert results and results[0].result == ("migrated", "ok", "z2")
    # The others executed 1 in view 0 and ignore its re-proposal, so gx0
    # executes neither 1 nor 2 until its request timer asks for the gap:
    # each member reports both slots, through GlobalMsg (ROADMAP D1(v);
    # gx0 used to leave alone for view 2).
    assert [(r.view, r.view_active, r.last_executed) for r in replicas] \
        == [(1, True, 2)] * 4
    assert fetched.count("ProofReply") == 1
    assert fetched.count("GapReply") == catch_up_messages(4, 2)[1]
