"""Tests for the online protocol-conformance monitor and forensic audit.

Three layers of coverage:

- *Unit*: synthetic events fed straight into the checkers (bad quorums,
  stalls) — no simulator needed.
- *Online*: real adversarial runs (an equivocating PBFT primary, forged
  and undersized top-level certificates) must be flagged live, while
  honest runs of every protocol must finish clean.
- *Offline*: replaying an exported JSONL trace through ``audit_trace``
  must reproduce the online verdict byte-for-byte.
"""

from types import SimpleNamespace

import pytest

from repro.bench.baseline import check_baseline, write_baseline
from repro.bench.runner import PointSpec, run_point
from repro.crypto.digest import digest
from repro.messages.sync import Accept, Ballot, GENESIS_BALLOT, GlobalCommit
from repro.messages.sync import accept_body, commit_body
from repro.crypto.certificates import QuorumCertificate
from repro.obs.bus import Instrumentation
from repro.obs.export import write_trace_jsonl
from repro.obs.monitor import MonitorConfig, MonitorTopology, ProtocolMonitor
from repro.obs.report import audit_trace
from tests.conftest import drive_to_completion, small_ziziphus
from tests.test_pbft_byzantine import build_byzantine_group
from tests.test_pbft_normal import make_client, run_ops
from tests.test_sync_adversarial import cert_over, deliver, signed_migration


def monitored(dep, **config):
    """Attach an enabled bus + monitor to a built deployment."""
    obs = Instrumentation(enabled=True)
    obs.attach(dep)
    return ProtocolMonitor.attach(obs, dep,
                                  config=MonitorConfig(**config))


def kinds(monitor):
    return {v.kind for v in monitor.violations}


# ----------------------------------------------------------------------
# Unit: synthetic events straight into the checkers
# ----------------------------------------------------------------------

def commit_event(monitor, ts, node, *, digest_hex="aa", signers,
                 group="n0,n1,n2,n3", f=1, view=0, sequence=1):
    monitor.on_event(ts, "pbft.commit", node,
                     {"view": view, "sequence": sequence,
                      "digest": digest_hex, "signers": signers,
                      "group": group, "f": f})


def test_commit_quorum_checks():
    monitor = ProtocolMonitor()
    # Healthy: 2f+1 distinct in-group signers.
    commit_event(monitor, 1.0, "n0", signers=["n0", "n1", "n2"])
    assert monitor.clean
    # Undersized.
    commit_event(monitor, 2.0, "n1", signers=["n0", "n1"], sequence=2)
    # Duplicates padding the count.
    commit_event(monitor, 3.0, "n2", signers=["n0", "n1", "n1"], sequence=3)
    # A signer from outside the group.
    commit_event(monitor, 4.0, "n3", signers=["n0", "n1", "zz"], sequence=4)
    assert [v.kind for v in monitor.violations] == ["pbft-bad-quorum"] * 3
    reasons = {v.detail["reason"] for v in monitor.violations}
    assert reasons == {"undersized", "duplicate-signers", "foreign-signer"}
    with pytest.raises(AssertionError):
        monitor.assert_clean()


def test_divergent_commits_at_same_slot():
    monitor = ProtocolMonitor()
    commit_event(monitor, 1.0, "n0", digest_hex="aa",
                 signers=["n0", "n1", "n2"])
    commit_event(monitor, 2.0, "n1", digest_hex="bb",
                 signers=["n1", "n2", "n3"])
    assert kinds(monitor) == {"pbft-divergence"}


def test_watchdog_flags_stalled_request():
    monitor = ProtocolMonitor(config=MonitorConfig(stall_timeout_ms=100.0))
    monitor.on_event(10.0, "sync.start", "z0n0",
                     {"ballot": "1.z0", "stable": True})
    monitor.finish(500.0)    # no sync.execute ever arrived
    assert kinds(monitor) == {"stall"}
    (violation,) = monitor.violations
    assert violation.detail["age_ms"] == pytest.approx(490.0)
    assert violation.detail["phase"] == "start"    # never left phase one


def test_watchdog_quiet_when_request_completes():
    monitor = ProtocolMonitor(config=MonitorConfig(stall_timeout_ms=100.0))
    monitor.on_event(10.0, "sync.start", "z0n0",
                     {"ballot": "1.z0", "stable": True})
    monitor.on_event(40.0, "sync.execute", "z0n0", {"ballot": "1.z0"})
    monitor.finish(500.0)
    assert monitor.clean


# ----------------------------------------------------------------------
# Online: adversarial runs are flagged, honest runs are clean
# ----------------------------------------------------------------------

def test_equivocating_primary_is_flagged_online():
    sim, net, keys, group, nodes = build_byzantine_group({0: "equivocate"})
    obs = Instrumentation(enabled=True)
    obs.attach(SimpleNamespace(sim=sim, network=net))
    monitor = ProtocolMonitor.attach(
        obs, topology=MonitorTopology.single_group(group, f=1))
    client = make_client(sim, net, keys, group)
    run_ops(sim, client, [("open", 100), ("deposit", 10)])
    assert "pbft-equivocation" in kinds(monitor)
    culpability = monitor.culpability()
    assert "n0" in culpability    # the equivocator, not its victims
    assert culpability["n0"]["pbft-equivocation"] >= 1


def test_honest_group_is_clean_online():
    sim, net, keys, group, nodes = build_byzantine_group({})
    obs = Instrumentation(enabled=True)
    obs.attach(SimpleNamespace(sim=sim, network=net))
    monitor = ProtocolMonitor.attach(
        obs, topology=MonitorTopology.single_group(group, f=1))
    client = make_client(sim, net, keys, group)
    run_ops(sim, client, [("open", 100), ("deposit", 10)])
    monitor.finish(sim.now)
    monitor.assert_clean()
    assert monitor.checked["pbft.commit"] > 0


def test_undersized_cert_is_flagged_online(ziziphus3):
    dep = ziziphus3
    monitor = monitored(dep)
    dep.add_client("c1", "z0")
    env = signed_migration(dep)
    ballot = Ballot(seq=1, zone_id="z0")
    body = accept_body(ballot, GENESIS_BALLOT, digest((env.payload,)))
    weak_cert = cert_over(dep, body, ["z0n0", "z0n1"])    # 2 < 2f+1
    accept = Accept(view=0, ballot=ballot, prev_ballot=GENESIS_BALLOT,
                    request_digest=digest((env.payload,)), cert=weak_cert,
                    sender="z0n0", requests=(env,))
    deliver(dep, "z1n0", accept, "z0n0")
    flagged = [v for v in monitor.violations if v.kind == "cert-invalid"]
    assert flagged and flagged[0].detail["reason"] == "undersized"
    assert flagged[0].culprit == "z0n0"


def test_forged_cert_is_flagged_online(ziziphus3):
    dep = ziziphus3
    monitor = monitored(dep)
    dep.add_client("c1", "z0")
    env = signed_migration(dep)
    ballot = Ballot(seq=1, zone_id="z0")
    body = commit_body(ballot, GENESIS_BALLOT, digest((env.payload,)))
    bogus = QuorumCertificate(payload_digest=body,
                              signatures=(dep.keys.forged("z0n0"),
                                          dep.keys.forged("z0n1"),
                                          dep.keys.forged("z0n2")))
    commit = GlobalCommit(view=0, ballot=ballot,
                          prev_ballot=GENESIS_BALLOT, requests=(env,),
                          cert=bogus, checkpoints=(), sender="z0n0")
    deliver(dep, "z2n1", commit, "z0n0")
    flagged = [v for v in monitor.violations if v.kind == "cert-invalid"]
    assert flagged and flagged[0].detail["reason"] == "signature-invalid"


def two_clusters(execution=None):
    """z0, z1 in cluster-0 and z2, z3 in cluster-1; ``execution=None``
    is the chain discipline of ``default`` and ``syncbft``."""
    zones = {zone: {"members": [f"{zone}n{i}" for i in range(4)], "f": 1,
                    "cluster": cluster}
             for zone, cluster in (("z0", "cluster-0"), ("z1", "cluster-0"),
                                   ("z2", "cluster-1"), ("z3", "cluster-1"))}
    return ProtocolMonitor(MonitorTopology.from_dict({
        "zones": zones, "execution": execution,
        "clusters": {"cluster-0": ["z0", "z1"], "cluster-1": ["z2", "z3"]}}))


def commuting_two_clusters():
    return two_clusters("commuting")


def migration_executed(monitor, node, ballot):
    monitor.on_event(1.0, "migration.executed", node, {
        "ballot": ballot, "client": "c1", "req_ts": 2, "source": "z0",
        "dest": "z2", "accepted": True, "reason": "ok"})


def test_commuting_checker_takes_each_clusters_half_of_a_move_once():
    """A cross-cluster move applies under one ballot per cluster; only a
    second ballot of one cluster applies it twice. (Matching a client's
    moves by request timestamp across clusters flagged z0n1's ``2.z0``
    against ``2.z2``, the other cluster's half.)"""
    monitor = commuting_two_clusters()
    migration_executed(monitor, "z2n0", "2.z2")
    migration_executed(monitor, "z0n1", "2.z0")
    assert monitor.violations == []
    migration_executed(monitor, "z0n1", "4.z0")
    assert [(v.kind, v.culprit) for v in monitor.violations] == [
        ("migration-duplicate", "z0n1")]


def moved(monitor, ts, node, ballot, req_ts, source, dest):
    """c1's request ``req_ts`` applied under ``ballot``, as a chain
    backend reports it: ``source`` is the request's claim."""
    monitor.on_event(ts, "migration.executed", node, {
        "ballot": ballot, "client": "c1", "req_ts": req_ts,
        "source": source, "dest": dest, "accepted": True})


def booked(monitor):
    return [(v.kind, v.culprit) for v in monitor.violations]


def test_a_half_that_lands_after_the_clients_next_move_is_clean():
    """c1 goes z2 -> z0; cluster-0 applies its half, c1 moves on to z1,
    and only then does cluster-1 apply its own half of z2 -> z0. (The
    chain checker compared that half with c1's *current* owner, z1, and
    booked ``migration-dest-divergence``.)"""
    monitor = two_clusters()
    moved(monitor, 1.0, "z0n0", "2.z0", 2, "z2", "z0")
    moved(monitor, 2.0, "z0n0", "3.z0", 3, "z0", "z1")
    moved(monitor, 3.0, "z2n0", "2.z2", 2, "z2", "z0")
    assert booked(monitor) == []


def test_a_claim_that_is_not_the_owner_is_an_ownership_fork():
    monitor = two_clusters()
    moved(monitor, 1.0, "z0n0", "2.z0", 2, "z0", "z1")
    moved(monitor, 2.0, "z2n0", "3.z2", 3, "z2", "z3")
    assert booked(monitor) == [("ownership-fork", "z2n0")]


@pytest.mark.parametrize("execution", [None, "commuting"])
def test_a_second_ballot_of_one_cluster_is_a_duplicate(execution):
    monitor = two_clusters(execution)
    moved(monitor, 1.0, "z0n0", "2.z0", 2, "z0", "z1")
    moved(monitor, 2.0, "z1n0", "4.z1", 2, "z0", "z1")
    assert booked(monitor) == [("migration-duplicate", "z1n0")]


@pytest.mark.parametrize("execution", [None, "commuting"])
def test_two_copies_that_disagree_on_the_destination_diverge(execution):
    monitor = two_clusters(execution)
    moved(monitor, 1.0, "z0n0", "2.z0", 2, "z0", "z2")
    moved(monitor, 2.0, "z2n0", "2.z2", 2, "z0", "z3")
    assert booked(monitor) == [("migration-dest-divergence", "z2n0")]


def test_both_halves_of_a_rotating_cross_cluster_move_are_clean():
    """The same move end to end: c1 goes z0 -> z2 under ``rotating``."""
    from tests.test_clusters import build_clustered
    dep = build_clustered(backend="rotating")
    client = dep.add_client("c1", "z0")
    monitor = monitored(dep)
    records = drive_to_completion(dep, client, [("migrate", "z2")])
    assert records[0].result == ("migrated", "ok", "z2")
    assert monitor.violations == []


def test_honest_ziziphus_run_is_clean():
    dep = small_ziziphus(num_zones=3, f=1)
    monitor = monitored(dep)
    client = dep.add_client("c1", "z0")
    drive_to_completion(dep, client, [("local", ("deposit", 5)),
                                      ("migrate", "z1"),
                                      ("local", ("deposit", 7))])
    monitor.finish(dep.sim.now)
    monitor.assert_clean()
    # Every checker family actually saw traffic.
    for kind in ("pbft.commit", "cert.check", "sync.commit",
                 "migration.executed"):
        assert monitor.checked[kind] > 0, f"no {kind} events reached it"


@pytest.mark.parametrize("protocol", ["ziziphus", "flat-pbft",
                                      "two-level", "steward"])
def test_bench_point_monitors_clean(protocol):
    result = run_point(PointSpec(protocol=protocol, clients_per_zone=5,
                                 warmup_ms=100.0, measure_ms=200.0))
    assert result.metrics.violations == 0
    assert result.monitor.clean


# ----------------------------------------------------------------------
# Offline: audit replay is deterministic and matches the online verdict
# ----------------------------------------------------------------------

def test_audit_reproduces_online_report_byte_for_byte(tmp_path):
    spec = PointSpec(protocol="ziziphus", clients_per_zone=5,
                     global_fraction=0.2, warmup_ms=100.0,
                     measure_ms=300.0, record_trace=True)
    result = run_point(spec)
    path = write_trace_jsonl(result.obs, tmp_path / "trace.jsonl")
    replayed = audit_trace(path)
    assert replayed.report_json() == result.monitor.report_json()
    # And the replay itself is deterministic.
    assert audit_trace(path).report_json() == replayed.report_json()


def test_audit_replays_violations(tmp_path):
    """A trace carrying an injected fault yields the same violations
    offline that the online monitor raised."""
    sim, net, keys, group, nodes = build_byzantine_group({0: "equivocate"})
    obs = Instrumentation(enabled=True, recording=True)
    obs.attach(SimpleNamespace(sim=sim, network=net))
    monitor = ProtocolMonitor.attach(
        obs, topology=MonitorTopology.single_group(group, f=1))
    client = make_client(sim, net, keys, group)
    run_ops(sim, client, [("open", 100), ("deposit", 10)])
    monitor.finish(sim.now)
    obs.end_ms = sim.now
    assert not monitor.clean
    path = write_trace_jsonl(obs, tmp_path / "byz.jsonl")
    replayed = audit_trace(path)
    assert replayed.report_json() == monitor.report_json()
    assert "pbft-equivocation" in kinds(replayed)


# ----------------------------------------------------------------------
# Baseline regression harness
# ----------------------------------------------------------------------

SMALL_SPECS = (PointSpec(protocol="ziziphus", clients_per_zone=5,
                         warmup_ms=100.0, measure_ms=200.0),)


def test_baseline_roundtrip_is_stable(tmp_path):
    path = write_baseline(tmp_path / "base.json", specs=SMALL_SPECS)
    assert check_baseline(path, specs=SMALL_SPECS) == []


def test_baseline_flags_regressions(tmp_path):
    import json
    path = write_baseline(tmp_path / "base.json", specs=SMALL_SPECS)
    stored = json.loads(path.read_text())
    for point in stored["points"].values():
        point["tput_tps"] *= 10.0    # pretend the past was 10x faster
    path.write_text(json.dumps(stored))
    problems = check_baseline(path, specs=SMALL_SPECS)
    assert problems and "throughput regressed" in problems[0]
