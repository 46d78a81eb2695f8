"""Algorithm 2, the data migration protocol, as a pinned unit.

One executed ballot's migrations from one source zone to one destination
zone are one *group*, and Algorithm 2 runs once per group (DESIGN.md
§6.4): one ``mig-state`` endorsement in the source zone, one STATE to
each destination member, one ``mig-append`` endorsement in the
destination — the same messages however many migrations the group holds.
That budget is pinned here with the group's edges: two destinations are
two groups, a member the policies rejected rides in its group and is not
applied, a STATE naming other clients than the ballot carries is
refused, a re-query is answered with the whole group by each proxy,
a STATE ahead of its commit is parked, one whose ballot never commits is
let go, and a cross-cluster migration is a group of one. So is the
order the source zone ships in — when it accepts the ballot, before it
executes it — with one idle migration's latency per pair of zones, and
the two zone-view splits after an initiator crash (ROADMAP D1) that no
longer happen. Run as a script it prints what CI shows in the job
summary; with ``--census BACKEND``, migrations per group and Algorithm 2
messages per migration of a 60 %-global point under that backend.
"""

import sys

import pytest

from repro.analysis.complexity import ziziphus_migration_messages
from repro.chaos import CAMPAIGNS, run_scenario
from repro.core.deployment import ZiziphusConfig, build_ziziphus
from repro.core.metadata import PolicySet
from repro.core.migration_protocol import MigrationConfig
from repro.core.sync_protocol import SyncConfig
from repro.messages.base import sign_message
from repro.messages.migration import StateTransfer
from repro.obs.bus import Instrumentation
from repro.obs.monitor import ProtocolMonitor
from repro.pbft.replica import PBFTConfig
from repro.workload.driver import ClosedLoopDriver
from repro.workload.generator import WorkloadMix

#: Completion of one idle migration, by (source, destination) zone, in
#: ms: four zones on the default configuration, one client, seed 1
#: (``idle_migration_ms``). Before: the latency when the source zone
#: shipped R(c) on executing the ballot's COMMIT; now: when it ships on
#: accepting the ballot. No pair may be slower than it was.
IDLE_MIGRATION_MS = {
    ("z0", "z1"): (138.9, 135.9), ("z0", "z2"): (165.0, 162.4),
    ("z0", "z3"): (229.2, 225.2), ("z1", "z0"): (187.6, 135.6),
    ("z1", "z2"): (165.1, 162.6), ("z1", "z3"): (320.8, 273.5),
    ("z2", "z0"): (242.1, 163.8), ("z2", "z1"): (193.0, 164.0),
    ("z2", "z3"): (372.2, 299.5), ("z3", "z0"): (369.0, 291.3),
    ("z3", "z1"): (415.3, 338.4), ("z3", "z2"): (437.0, 360.5),
}

#: Algorithm 2 messages of one group in zones of four: ``mig-state`` — 3
#: pre-prepares, 9 prepares, 3 votes to the leader, 3 certificates from
#: it —, 4 STATEs, ``mig-append`` — 3 pre-prepares, 3 votes, 3
#: certificates. 46 while every member multicast its vote (15 votes with
#: the leader's second one, then 12); a migration paid all 46 before the
#: protocol ran per group.
GROUP_MESSAGES = 31
#: The tests' PBFT timers (``tests/conftest.py``'s ``fast_pbft``).
FAST_PBFT = PBFTConfig(batch_size=1, batch_timeout_ms=0.5,
                       request_timeout_ms=150.0, view_change_timeout_ms=300.0,
                       checkpoint_period=64, water_mark_window=512)


def one_ballot_sync(**overrides):
    """The tests' sync timers, with global batching loose enough that
    migrations submitted together are ordered in one ballot."""
    return SyncConfig(**{
        "stable_leader": True, "global_batch_size": 8,
        "global_batch_timeout_ms": 50.0, "commit_timeout_ms": 800.0,
        "phase_timeout_ms": 800.0, "watch_timeout_ms": 400.0,
        "checkpoint_on_migration": False, **overrides})


class Tap:
    """Every message handed to the network, once per destination, as
    ``(payload type, endorsement instance or None)``; those ``hold``
    matches (by type, destination and payload) wait for :meth:`release`."""

    def __init__(self, deployment, hold=None):
        self.sent = []
        self.held = []
        self.hold = hold
        self._multicast = deployment.network.multicast
        deployment.network.multicast = self._intercept

    def _intercept(self, src, dsts, message):
        payload = getattr(message, "payload", message)
        kind = type(payload).__name__
        passed = []
        for dst in dsts:
            self.sent.append((kind, getattr(payload, "instance", None)))
            if self.hold is not None and self.hold(kind, dst, payload):
                self.held.append((src, dst, message))
            else:
                passed.append(dst)
        if passed:
            self._multicast(src, passed, message)

    def bypass(self, src, dst, message):
        """Send ``message`` past the tap: neither counted nor held."""
        self._multicast(src, (dst,), message)

    def release(self):
        held, self.held = self.held, []
        for src, dst, message in held:
            self.bypass(src, dst, message)

    def algorithm2(self):
        """The ``mig-*`` endorsement messages and the STATEs."""
        return [kind for kind, instance in self.sent
                if kind == "StateTransfer"
                or (instance or "").startswith("mig-")]

    def instances(self, stage):
        return {instance for _, instance in self.sent
                if (instance or "").startswith(f"mig-{stage}/")}


def migrating(deployment, moves):
    """Client ``m{i}`` homed in ``source`` for each ``(source, dest)`` of
    ``moves``, all submitting their migration at once."""
    clients = []
    for i, (source, dest) in enumerate(moves):
        client = deployment.add_client(f"m{i}", source)
        client.on_complete = lambda record: None
        deployment.sim.schedule(0.0, client.submit_migration, dest)
        clients.append(client)
    return clients


def one_ballot(moves, hold=None, run_ms=5_000.0, **config):
    """Three zones of four ordering ``moves`` in one ballot; returns the
    deployment, its tap and the clients after ``run_ms``."""
    deployment = build_ziziphus(ZiziphusConfig(
        num_zones=3, f=1, pbft=FAST_PBFT, sync=one_ballot_sync(), **config))
    tap = Tap(deployment, hold)
    clients = migrating(deployment, moves)
    deployment.run(run_ms)
    return deployment, tap, clients


def ballots(deployment):
    """Ballots the initiator zone executed."""
    return set(deployment.nodes["z0n1"].sync.executed_results)


def groups(deployment, zone_id):
    """The groups one node of ``zone_id`` took part in, with members."""
    return dict(deployment.zone_nodes(zone_id)[1].migration._members)


def results(clients):
    return [client.completed[-1].result if client.completed else None
            for client in clients]


def applied(deployment, zone_id):
    return [node.migration.migrations_applied
            for node in deployment.zone_nodes(zone_id)]


# ----------------------------------------------------------------------
# One group, whatever its size
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", [1, 2, 5])
def test_a_group_costs_one_endorsement_per_zone_whatever_its_size(k):
    deployment, tap, clients = one_ballot([("z1", "z2")] * k)
    assert results(clients) == [("migrated", "ok", "z2")] * k
    assert len(ballots(deployment)) == 1
    assert len(tap.instances("state")) == len(tap.instances("append")) == 1
    assert len(tap.algorithm2()) == GROUP_MESSAGES
    assert applied(deployment, "z2") == [k] * 4


def test_the_complexity_model_prices_a_group_once():
    """``analysis.complexity`` prices a group at exactly what is sent (it
    priced 43 against 46 sent while the leader voted twice)."""
    def model(groups):
        return ziziphus_migration_messages(zones=3, zone_size=4,
                                           migrations_in_batch=0,
                                           groups=groups)
    assert model(2) - model(1) == model(1) - model(0) == GROUP_MESSAGES


def test_a_ballot_moving_clients_to_two_zones_runs_two_groups():
    deployment, tap, clients = one_ballot(
        [("z1", "z2"), ("z1", "z0"), ("z1", "z2")])
    assert results(clients) == [("migrated", "ok", "z2"),
                                ("migrated", "ok", "z0"),
                                ("migrated", "ok", "z2")]
    assert len(ballots(deployment)) == 1
    assert len(tap.instances("state")) == len(tap.instances("append")) == 2
    assert len(tap.algorithm2()) == 2 * GROUP_MESSAGES
    assert sorted(groups(deployment, "z1").values()) \
        == [("m0", "m2"), ("m1",)]


def test_a_member_rejected_by_policy_rides_in_the_group_and_is_not_applied():
    """Membership is what the requests name: z1 ships the group when it
    accepts the ballot, before anyone knows what execution makes of it.
    z2 may host two clients, so its execution refuses the third move;
    that member rides in the STATE and z2 appends only the other two."""
    deployment, tap, clients = one_ballot(
        [("z1", "z2")] * 3, policies=PolicySet(max_clients_per_zone=2))
    outcomes = results(clients)
    assert outcomes.count(("migrated", "ok", "z2")) == 2
    assert outcomes.count(("rejected", "zone-full", "z2")) == 1
    rejected = f"m{outcomes.index(('rejected', 'zone-full', 'z2'))}"
    assert list(groups(deployment, "z1").values()) \
        == list(groups(deployment, "z2").values()) == [("m0", "m1", "m2")]
    assert len(tap.algorithm2()) == GROUP_MESSAGES
    assert applied(deployment, "z2") == [2] * 4
    assert not any(node.app.has_account(rejected)
                   for node in deployment.zone_nodes("z2"))


# ----------------------------------------------------------------------
# The source zone ships when it accepts, the destination appends once it
# has executed
# ----------------------------------------------------------------------
def idle_migration_ms(source, dest):
    """Completion latency of one migration from ``source`` to ``dest``
    in an otherwise idle deployment of four zones (seed 1)."""
    deployment = build_ziziphus(ZiziphusConfig(num_zones=4, f=1, seed=1))
    (client,) = migrating(deployment, [(source, dest)])
    deployment.run(5_000.0)
    (record,) = client.completed
    assert record.result == ("migrated", "ok", dest)
    return round(record.latency_ms, 1)


@pytest.mark.parametrize("source,dest", sorted(IDLE_MIGRATION_MS))
def test_one_idle_migration_is_no_slower_than_shipping_at_the_commit(
        source, dest):
    before, now = IDLE_MIGRATION_MS[(source, dest)]
    assert idle_migration_ms(source, dest) == now <= before


def test_every_state_leaves_before_its_source_executes_and_lands_after():
    """A fault-free closed loop of four zones: each group's STATE leaves
    its source primary before that primary has executed the ballot, and
    no destination node applies a member before it has executed it."""
    deployment = bench_like(num_zones=4, backend="default", seed=7)
    obs = Instrumentation(recording=True).attach(deployment)
    ProtocolMonitor.attach(obs, deployment)
    ClosedLoopDriver(deployment, WorkloadMix(global_fraction=0.6),
                     clients_per_zone=10, seed=7).start()
    deployment.run(600.0)
    executed, shipped, landed = {}, [], []
    for index, event in enumerate(obs.events):
        where = (event.node, event.fields.get("ballot"))
        if event.kind == "sync.execute":
            executed.setdefault(where, index)
        elif event.kind == "migration.state_sent":
            shipped.append((where, index))
        elif event.kind == "migration.applied":
            landed.append((where, index))
    assert len(shipped) > 100 and len(landed) > 300
    assert all(executed.get(where, len(obs.events)) > index
               for where, index in shipped)
    assert all(executed[where] < index for where, index in landed)
    assert obs.monitor.violations == []


def test_a_state_of_a_ballot_that_never_commits_is_let_go_unapplied():
    """Leaderless, the destination z2 initiates; z0 never hears an ACCEPT
    and z2 never a PROMISE of z1's. z1 accepts the first ballot and ships
    its STATE, but its ACCEPTED is lost, so z2 supersedes the ballot and
    orders the move again, on z0's promise, under a second one. z2 parks
    the first STATE, lets it go as the second ballot executes, and
    applies the client once, from the second ballot's STATE."""
    deployment = build_ziziphus(ZiziphusConfig(
        num_zones=3, f=1, pbft=FAST_PBFT,
        sync=one_ballot_sync(stable_leader=False,
                             commit_timeout_ms=4_000.0)))
    obs = Instrumentation(enabled=True, recording=False, metrics=False)
    monitor = ProtocolMonitor.attach(obs.attach(deployment), deployment)

    def lost(kind, dst, payload):
        if dst.startswith("z0"):
            return kind == "Accept"
        return dst.startswith("z2") and (
            kind == "Promise" and payload.zone_id == "z1"
            or kind == "Accepted" and deployment.sim.now < 700.0)

    tap = Tap(deployment, hold=lost)
    (client,) = migrating(deployment, [("z1", "z2")])
    deployment.run(600.0)
    z2 = deployment.zone_nodes("z2")
    ((first, clients),) = z2[0].migration._buffered_states
    assert clients == ("m0",)
    assert all(list(node.migration._buffered_states) == [(first, clients)]
               for node in z2)
    deployment.run(5_000.0)
    assert results([client]) == [("migrated", "ok", "z2")]
    (second,) = set(deployment.nodes["z2n0"].sync.executed_results)
    assert second != first
    for node in z2:
        assert node.migration._buffered_states == {}
        assert list(node.migration._members) == [(second, "z1", "z2")]
    assert applied(deployment, "z2") == [1] * 4
    assert len(tap.instances("state")) == 2
    assert len(tap.instances("append")) == 1
    monitor.finish(deployment.sim.now)
    assert monitor.violations == []


# ----------------------------------------------------------------------
# The group's edges
# ----------------------------------------------------------------------
def cut_state(k=2):
    """A ballot of ``k`` moves z1 -> z2 that executed everywhere, whose
    STATE the tap is holding back from z2."""
    return one_ballot([("z1", "z2")] * k, run_ms=1_000.0,
                      hold=lambda kind, dst, _: kind == "StateTransfer"
                      and dst.startswith("z2"))


def test_a_state_naming_other_clients_than_the_ballot_committed_is_refused():
    deployment, tap, clients = cut_state()
    genuine = tap.held[0][2].payload    # the STATE held back from z2
    assert genuine.clients == ("m0", "m1")
    target = deployment.nodes["z2n1"]
    stranger = dict(genuine.records["m0"])
    for named in (("m0",), ("m0", "m1", "m9")):
        forged = StateTransfer(
            view=0, ballot=genuine.ballot, clients=named,
            records={c: genuine.records.get(c, stranger) for c in named},
            cert=genuine.cert, sender="z1n0")
        before = target.invalid_messages
        tap.bypass("z1n0", "z2n1",
                   sign_message(deployment.keys, "z1n0", forged))
        deployment.run(deployment.sim.now + 200.0)
        assert target.invalid_messages == before + 1     # booked
    assert applied(deployment, "z2") == [0] * 4
    tap.release()
    deployment.run(deployment.sim.now + 1_000.0)
    assert applied(deployment, "z2") == [2] * 4
    assert results(clients) == [("migrated", "ok", "z2")] * 2


def test_a_requery_gets_the_group_from_each_proxy_and_applies_each_once():
    deployment, tap, clients = cut_state(k=3)
    obs = Instrumentation(enabled=True, recording=False, metrics=False)
    monitor = ProtocolMonitor.attach(obs.attach(deployment), deployment)
    tap.hold = None
    tap.held.clear()                    # lost for good
    queries = len([k for k, _ in tap.sent if k == "ResponseQuery"])
    deployment.run(deployment.sim.now
                   + MigrationConfig().state_timeout_ms + 1_000.0)
    # Each z2 node asked the four z1 members once; the two proxies
    # (f+1) answered each with the whole group, built from the group's
    # certificate: 8 STATEs. The second reached each destination before
    # the append quorum; its primary, already leading the append round in
    # its view, did not lead it again (3 pre-prepares and 3 votes more).
    asked = [k for k, _ in tap.sent if k == "ResponseQuery"][queries:]
    assert len(asked) == 4 * 4
    assert len(tap.algorithm2()) == GROUP_MESSAGES + 8
    assert applied(deployment, "z2") == [3] * 4
    assert results(clients) == [("migrated", "ok", "z2")] * 3
    monitor.finish(deployment.sim.now)
    assert monitor.violations == []


def test_a_state_ahead_of_its_commit_is_parked_then_applied():
    deployment, tap, clients = one_ballot(
        [("z1", "z2")] * 2, run_ms=1_000.0,
        hold=lambda kind, dst, _: kind == "GlobalCommit"
        and dst.startswith("z2"))
    (ballot,) = ballots(deployment)
    for node in deployment.zone_nodes("z2"):
        assert list(node.migration._buffered_states) == [(ballot, ("m0", "m1"))]
        assert node.migration.migrations_applied == 0
    tap.hold = None
    tap.release()
    deployment.run(deployment.sim.now + 1_000.0)
    for node in deployment.zone_nodes("z2"):
        assert node.migration._buffered_states == {}
    assert applied(deployment, "z2") == [2] * 4
    assert results(clients) == [("migrated", "ok", "z2")] * 2


def test_a_cross_cluster_migration_is_a_group_of_one():
    deployment = build_ziziphus(ZiziphusConfig(
        num_zones=4, num_clusters=2, f=1, pbft=FAST_PBFT,
        sync=one_ballot_sync(commit_timeout_ms=2_000.0,
                             phase_timeout_ms=2_000.0)))
    tap = Tap(deployment)
    clients = migrating(deployment, [("z0", "z2"), ("z0", "z2")])
    deployment.run(10_000.0)
    assert results(clients) == [("migrated", "ok", "z2")] * 2
    assert sorted(groups(deployment, "z2").values()) == [("m0",), ("m1",)]
    assert len(tap.instances("state")) == len(tap.instances("append")) == 2
    assert len(tap.algorithm2()) == 2 * GROUP_MESSAGES


# ----------------------------------------------------------------------
# ROADMAP D1: a zone split across views after an initiator crash
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,seed,backend", [
    # z0n1 alone climbed to view 16 while z0n2 and z0n3 stayed in 6.
    ("initiator-crash", 5, "default"),
    # z0n0 alone at view 9, z0n1 active in 7.
    ("initiator-churn", 2, "syncbft"),
    # Votes go to the leader: z0n0's went to the primary that crashed,
    # and with no member holding them z0 split, z0n0 in view 1 and z0n2
    # in 2 — until a member re-sends its share to the next primary.
    # D1(iv) since: recovered, z0n0 watches mig-append/21.z0/z2>z0, which
    # z0 certified while it was down; once a view change costs one view,
    # the watch fired at 4.2 s and z0n0 left view 2 alone — now it asks
    # the zone for the certificate first.
    ("initiator-churn", 1, "syncbft"),
])
def test_a_zone_split_across_views_after_an_initiator_crash_rejoins(
        name, seed, backend):
    scenario = next(s for s in CAMPAIGNS["failover"] if s.name == name)
    result = run_scenario(scenario, seed=seed, backend=backend)
    assert result.verdict == "pass", result.reasons


@pytest.mark.parametrize("seed,lone", [(1, []), (2, []), (3, [])])
def test_a_recovered_backup_does_not_suspect_over_what_its_zone_certified(
        seed, lone, monkeypatch):
    """ROADMAP D1(iv): in `crash-backup-churn` z0n1 and z1n1 come back
    and watch Algorithm 2 instances their zones finished while they were
    down. Each asks its zone for the certificates, so no watch starts a
    view change: z1n1 alone suspected its primary at 3.1-3.3 s on each of
    these seeds, and z0n1 at 3.2 s on seed 2. z0n1's PBFT request timer
    suspected alone on seeds 1 and 3 (2.6 s), over a gap its zone did not
    fill in time; since a source zone ships R(c) when it accepts a
    ballot the run takes another course and that gap no longer opens on
    these seeds — not because its mechanism went (ROADMAP D1(vi))."""
    from repro.pbft.view_change import ViewChangeManager
    initiated = []
    initiate = ViewChangeManager.initiate
    monkeypatch.setattr(ViewChangeManager, "initiate", lambda self, view: (
        initiated.append((self.host.node_id, view)), initiate(self, view)))
    scenario = next(s for s in CAMPAIGNS["default"]
                    if s.name == "crash-backup-churn")
    result = run_scenario(scenario, seed=seed, backend="default")
    assert result.verdict == "pass", result.reasons
    assert initiated == lone


# ----------------------------------------------------------------------
# The census CI prints per backend
# ----------------------------------------------------------------------
def bench_like(num_zones, backend, seed):
    """Zones of four on the benchmark's batching and timers."""
    return build_ziziphus(ZiziphusConfig(
        num_zones=num_zones, f=1, seed=seed, backend=backend,
        use_threshold_signatures=True,
        pbft=PBFTConfig(batch_size=16, batch_timeout_ms=1.0,
                        request_timeout_ms=8_000.0,
                        view_change_timeout_ms=8_000.0,
                        checkpoint_period=512, water_mark_window=4096),
        sync=SyncConfig(stable_leader=True, checkpoint_on_migration=False,
                        global_batch_size=24, global_batch_timeout_ms=10.0,
                        commit_timeout_ms=8_000.0, phase_timeout_ms=8_000.0,
                        watch_timeout_ms=8_000.0),
        migration=MigrationConfig(state_timeout_ms=8_000.0,
                                  watch_timeout_ms=8_000.0)))


def census(backend, seed=7):
    """Migrations per group and Algorithm 2 messages per migration of a
    60 %-global closed loop: three zones, ten clients each, 600 ms on the
    benchmark's batching and timers."""
    deployment = bench_like(num_zones=3, backend=backend, seed=seed)
    tap = Tap(deployment)
    ClosedLoopDriver(deployment, WorkloadMix(global_fraction=0.6),
                     clients_per_zone=10, seed=seed).start()
    deployment.run(600.0)
    members = {group: clients for node in deployment.nodes.values()
               for group, clients in node.migration._members.items()}
    migrations = sum(len(clients) for clients in members.values())
    return migrations / len(members), len(tap.algorithm2()) / migrations


if __name__ == "__main__":
    if sys.argv[1:2] == ["--census"]:
        per_group, per_migration = census(sys.argv[2])
        print(f"{sys.argv[2]}: {per_group:.2f} migrations per group, "
              f"{per_migration:.1f} Algorithm 2 messages per migration")
    else:
        costs = [len(one_ballot([("z1", "z2")] * k)[1].algorithm2())
                 for k in (1, 2, 5)]
        idle = ", ".join(f"{source}>{dest} {idle_migration_ms(source, dest)}"
                         for source, dest in sorted(IDLE_MIGRATION_MS))
        print(f"one group of 1 / 2 / 5 migrations: "
              f"{' / '.join(map(str, costs))} messages "
              f"(pinned {GROUP_MESSAGES} each); one idle migration, ms: "
              f"{idle}")
