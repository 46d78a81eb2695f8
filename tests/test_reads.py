"""Tests for the certified read path (``repro.reads``).

Four layers of coverage:

- *Crypto*: watermark certificates aggregate at the weak quorum (f+1)
  and forged or foreign signatures can never complete one.
- *Monitor*: synthetic ``read.complete`` / ``read.invalid`` events drive
  the staleness and fabrication checkers (no simulator needed).
- *Integration*: fast-path reads against a live deployment — including
  reads after a migration, which see the record as it arrived, never an
  older copy left behind — and the explicit fallback to the
  transactional path when no watermark exists yet.
- *Refusals and ill-shaped messages*: a refusal is one vote, not a
  verdict, and a message of the wrong shape from one member or one
  client is a refused message, not the end of the run.
- *Silence*: with reads disabled (the default), no ``read.*`` events and
  no watermark state appear anywhere, preserving byte-identical traces.
"""

import dataclasses

import pytest

from repro.bench.runner import PointSpec, run_point
from repro.crypto.certificates import CertificateVerifier, QuorumCertificate
from repro.messages.reads import (ReadReply, ReadRequest, ReadWatermarkCert,
                                  WatermarkShare, watermark_body)
from repro.obs.bus import Instrumentation
from repro.obs.monitor import MonitorTopology, ProtocolMonitor
from repro.pbft.faults import HonestBehavior
from repro.quorums import weak_quorum
from repro.reads import ReadConfig
from tests.conftest import inject, monitored, small_ziziphus
from tests.test_read_budget import (LOADED_MS, certified_zone, loaded_zones,
                                    next_asked, small_zones)


def read_ziziphus(**overrides):
    return small_ziziphus(num_zones=3, f=1,
                          read=ReadConfig(enabled=True), **overrides)


def run_actions(dep, client, actions, step_ms=40_000.0, max_steps=20):
    """Closed-loop driver that also understands ``("read", op)`` actions."""
    records = []
    plan = list(actions)

    def advance(record=None):
        if record is not None:
            records.append(record)
        if len(records) < len(plan):
            kind, arg = plan[len(records)]
            if kind == "local":
                client.submit_local(arg)
            elif kind == "read":
                client.submit_read(arg)
            else:
                client.submit_migration(arg)

    client.on_complete = advance
    dep.sim.schedule(0.0, advance)
    for _ in range(max_steps):
        dep.sim.run(until=dep.sim.now + step_ms)
        if len(records) >= len(plan):
            break
    return records


# ----------------------------------------------------------------------
# Crypto: quorum aggregation and forgery rejection
# ----------------------------------------------------------------------
def make_cert(keys, signers, f=1, sequence=4):
    body = watermark_body("z0", sequence, b"s", 50.0)
    sigs = [keys.sign(s, body) if ok else keys.forged(s)
            for s, ok in signers]
    return ReadWatermarkCert(
        zone="z0", sequence=sequence, state_digest=b"s", watermark_ts=50.0,
        certificate=QuorumCertificate.aggregate(body, sigs))


def test_weak_quorum_of_genuine_shares_verifies():
    from repro.crypto.keys import KeyRegistry
    keys = KeyRegistry(seed=7)
    members = frozenset({"n0", "n1", "n2", "n3"})
    cert = make_cert(keys, [("n0", True), ("n1", True)])
    verifier = CertificateVerifier(keys)
    assert verifier.is_valid(cert.certificate, weak_quorum(1), members)
    assert cert.body() == cert.certificate.payload_digest


def test_forged_share_cannot_complete_a_quorum():
    from repro.crypto.keys import KeyRegistry
    keys = KeyRegistry(seed=7)
    members = frozenset({"n0", "n1", "n2", "n3"})
    verifier = CertificateVerifier(keys)
    # f genuine + 1 forged signature: below the weak quorum.
    forged = make_cert(keys, [("n0", True), ("n1", False)])
    assert not verifier.is_valid(forged.certificate, weak_quorum(1), members)
    # f genuine + 1 from outside the zone: the foreign signer is ignored.
    foreign = make_cert(keys, [("n0", True), ("zz", True)])
    assert not verifier.is_valid(foreign.certificate, weak_quorum(1), members)


def test_fabricated_claim_is_detected_by_body_mismatch():
    """Mutating any certified field breaks the body/payload binding the
    client checks — the fabrication is provable from the cert alone."""
    from repro.crypto.keys import KeyRegistry
    keys = KeyRegistry(seed=7)
    cert = make_cert(keys, [("n0", True), ("n1", True)])
    bogus = dataclasses.replace(cert, sequence=cert.sequence + 1_000_000)
    assert bogus.body() != bogus.certificate.payload_digest


def test_client_rejects_fabricated_and_under_quorum_certs():
    dep = read_ziziphus()
    client = dep.add_client("c1", "z0")
    zone = dep.directory.zone("z0")
    good = make_cert(dep.keys, [("z0n0", True), ("z0n1", True)])
    good = dataclasses.replace(good, zone="z0")
    # Rebuild over the right zone id so the body binds.
    body = watermark_body("z0", 4, b"s", 50.0)
    good = ReadWatermarkCert(
        zone="z0", sequence=4, state_digest=b"s", watermark_ts=50.0,
        certificate=QuorumCertificate.aggregate(
            body, [dep.keys.sign("z0n0", body), dep.keys.sign("z0n1", body)]))
    assert client._cert_problem(good, zone) is None
    assert client._cert_problem(None, zone) == "missing-cert"
    assert client._cert_problem(
        dataclasses.replace(good, sequence=5), zone) == "claim-mismatch"
    under = ReadWatermarkCert(
        zone="z0", sequence=4, state_digest=b"s", watermark_ts=50.0,
        certificate=QuorumCertificate.aggregate(
            body, [dep.keys.sign("z0n0", body), dep.keys.forged("z0n1")]))
    assert client._cert_problem(under, zone) == "bad-quorum"


def test_a_watermark_certificate_is_judged_once_per_registry_quorum_and_zone(
        monkeypatch):
    """Served reads of one epoch carry one certificate object: its body
    and its quorum are checked once for a client's registry, quorum and
    member set; a failure is checked again every time."""
    from repro.core.zone import ZoneInfo
    from repro.crypto.keys import KeyRegistry
    from repro.messages.base import nested_signature_units
    dep = read_ziziphus()
    client = dep.add_client("c1", "z0")
    zone = dep.directory.zone("z0")
    checks = []
    is_valid = CertificateVerifier.is_valid
    monkeypatch.setattr(CertificateVerifier, "is_valid",
                        lambda *args: checks.append(1) or is_valid(*args))
    body = watermark_body("z0", 4, b"s", 50.0)

    def cert(*signatures):
        made = ReadWatermarkCert(
            zone="z0", sequence=4, state_digest=b"s", watermark_ts=50.0,
            certificate=QuorumCertificate.aggregate(body, list(signatures)))
        nested_signature_units(made)  # as sealing its reply does
        return made

    good = cert(dep.keys.sign("z0n0", body), dep.keys.sign("z0n1", body))
    assert [client._cert_problem(good, zone) for _ in range(3)] == [None] * 3
    assert len(checks) == 1
    # Another member set, quorum or registry judges it afresh.
    other = ZoneInfo("z0", ("z0n0", "z0n1", "z0n2", "x"), zone.region,
                     zone.profile)
    assert client._cert_problem(good, other) is None
    assert client._cert_problem(good, zone) is None
    assert len(checks) == 3
    client._verifier = CertificateVerifier(KeyRegistry(seed=dep.keys._seed))
    client.keys = client._verifier._keys
    assert client._cert_problem(good, zone) is None
    assert len(checks) == 4
    under = cert(dep.keys.sign("z0n0", body), dep.keys.forged("z0n1"))
    assert [client._cert_problem(under, zone) for _ in range(2)] \
        == ["bad-quorum"] * 2
    assert len(checks) == 6
    assert client._cert_problem(
        dataclasses.replace(good, zone="z1"), zone) == "wrong-zone"


# ----------------------------------------------------------------------
# Monitor: synthetic events straight into the read checkers
# ----------------------------------------------------------------------
MEMBERS = ["z0n0", "z0n1", "z0n2", "z0n3"]


def read_monitor():
    topology = MonitorTopology(
        zones={"z0": {"members": MEMBERS, "f": 1, "cluster": "c0"}},
        clusters={"c0": ["z0"]})
    return ProtocolMonitor(topology=topology)


def executed(monitor, ts, sequence):
    monitor.on_event(ts, "pbft.execute", "z0n0",
                     {"view": 0, "sequence": sequence, "batch": 1,
                      "group": ",".join(MEMBERS)})


def read_complete(monitor, ts, *, sequence, age_ms, bound_ms=300.0):
    monitor.on_event(ts, "read.complete", "c1",
                     {"zone": "z0", "sequence": sequence,
                      "age_ms": age_ms, "bound_ms": bound_ms})


def test_monitor_accepts_in_bound_read():
    monitor = read_monitor()
    executed(monitor, 10.0, sequence=3)
    read_complete(monitor, 20.0, sequence=3, age_ms=120.0)
    assert monitor.clean


def test_monitor_flags_over_bound_read():
    monitor = read_monitor()
    executed(monitor, 10.0, sequence=3)
    read_complete(monitor, 20.0, sequence=3, age_ms=450.0)
    assert [v.kind for v in monitor.violations] == ["read-stale-violation"]
    (violation,) = monitor.violations
    assert violation.detail["age_ms"] == 450.0


def test_monitor_flags_read_ahead_of_execution():
    """An honest read can never cite a watermark sequence above what any
    replica of the zone actually executed."""
    monitor = read_monitor()
    executed(monitor, 10.0, sequence=3)
    read_complete(monitor, 20.0, sequence=9, age_ms=10.0)
    assert [v.kind for v in monitor.violations] == ["read-ahead-of-execution"]


def test_monitor_attributes_fabrication_to_the_sender():
    monitor = read_monitor()
    monitor.on_event(20.0, "read.invalid", "c1",
                     {"sender": "z0n2", "zone": "z0",
                      "reason": "claim-mismatch"})
    assert [v.kind for v in monitor.violations] == ["read-fabrication"]
    culpability = monitor.culpability()
    assert "z0n2" in culpability          # the fabricator, not the client
    assert "c1" not in culpability
    assert culpability["z0n2"]["read-fabrication"] == 1


# ----------------------------------------------------------------------
# Integration: live deployments
# ----------------------------------------------------------------------
def test_certified_read_takes_the_fast_path():
    dep = read_ziziphus()
    client = dep.add_client("c1", "z0")
    records = run_actions(dep, client, [
        ("local", ("deposit", 5)),
        ("read", ("balance",)),
    ])
    assert records[1].result == ("ok", 10_005)
    assert records[1].labels == {"read": "fast"}
    # The verified watermark advanced the client's session vector.
    assert client.session.get("z0", 0) >= 1
    assert any(node.reads.reads_served > 0 for node in dep.zone_nodes("z0"))


def test_read_your_writes_across_migration():
    """After migrating, a certified read observes the writes the session
    made in the zone it left: the record arrives with them. The read in
    z1 also sees the deposit made there only because that deposit's batch
    is the first z1 certifies; in general a read may be served from a
    version older than its reader's last write (DESIGN.md §14.4)."""
    dep = read_ziziphus()
    client = dep.add_client("c1", "z0")
    records = run_actions(dep, client, [
        ("local", ("deposit", 1)),
        ("read", ("balance",)),
        ("migrate", "z1"),
        ("local", ("deposit", 2)),
        ("read", ("balance",)),
    ])
    assert records[1].result == ("ok", 10_001)
    assert records[2].result == ("migrated", "ok", "z1")
    assert records[4].result == ("ok", 10_003)
    assert records[4].labels["read"] == "fast"


def test_a_client_back_in_a_zone_does_not_read_what_it_left_there():
    """The client leaves z0, writes in z1 and comes back while z0 is idle:
    z0's certificate is still within the bound and its version holds the
    record as the client left it. Served under the current lock bit, that
    version would miss the write made in z1; the replicas refuse it
    ``absent`` (the record arrived after it) and the transactional path
    answers."""
    dep = read_ziziphus()
    client = dep.add_client("c1", "z0")
    obs = Instrumentation(recording=True)
    obs.attach(dep)
    records = run_actions(dep, client, [
        ("local", ("deposit", 1)),
        ("read", ("balance",)),
        ("migrate", "z1"),
        ("local", ("deposit", 2)),
        ("migrate", "z0"),
        ("read", ("balance",)),
    ], step_ms=300.0)
    assert records[1].labels == {"read": "fast"}
    assert records[4].result == ("migrated", "ok", "z0")
    assert records[5].result == ("ok", 10_003)
    assert records[5].labels == {"read": "fallback"}
    reasons = [e.fields["reason"] for e in obs.events
               if e.kind == "read.fallback"]
    assert reasons == ["absent"]


def test_read_without_watermark_falls_back_transparently():
    """Before any committed write the zone has no watermark certificate:
    replicas answer ``no-watermark`` and the client silently retries on
    the transactional path, which still returns the right answer."""
    dep = read_ziziphus()
    client = dep.add_client("c1", "z0")
    obs = Instrumentation(recording=True)
    obs.attach(dep)
    records = run_actions(dep, client, [("read", ("balance",))])
    assert records[0].result == ("ok", 10_000)
    assert records[0].labels == {"read": "fallback"}
    reasons = [e.fields["reason"] for e in obs.events
               if e.kind == "read.fallback"]
    assert reasons == ["no-watermark"]


def test_fast_read_beats_the_transactional_path():
    dep = read_ziziphus()
    client = dep.add_client("c1", "z0")
    records = run_actions(dep, client, [
        ("local", ("deposit", 1)),
        ("local", ("balance",)),
        ("read", ("balance",)),
    ])
    transactional = records[1]
    fast = records[2]
    assert fast.labels == {"read": "fast"}
    assert fast.latency_ms < transactional.latency_ms


def test_faulty_member_cannot_grow_the_share_table():
    """A zone member signing shares for sequences nobody can have
    executed, or many conflicting shares for ones somebody can, leaves the
    vote table bounded — and honest certification still goes through."""
    dep = read_ziziphus()
    node = dep.nodes["z0n0"]
    engine, window = node.reads, node.replica.config.water_mark_window

    def flood(sequence, state_digest):
        body = watermark_body("z0", sequence, state_digest, 0.0)
        share = WatermarkShare(
            zone="z0", sequence=sequence, state_digest=state_digest,
            watermark_ts=0.0, signature=dep.keys.sign("z0n3", body),
            sender="z0n3")
        engine._on_share("z0n3", share, None)

    for i in range(10_000):
        flood(node.replica.high_water_mark + 1 + i, b"far")
    assert engine._votes == {}
    for i in range(10_000):
        flood(1 + i % window, i.to_bytes(4, "big"))
    assert len(engine._votes) == window
    assert all(len(votes) == 1 for votes in engine._votes.values())

    client = dep.add_client("c1", "z0")
    records = run_actions(dep, client, [
        ("local", ("deposit", 5)),
        ("read", ("balance",)),
    ])
    assert records[1].result == ("ok", 10_005)
    assert records[1].labels == {"read": "fast"}
    assert engine.cert is not None and len(engine._votes) < window


# ----------------------------------------------------------------------
# A refusal is a vote
# ----------------------------------------------------------------------
class RefusingBehavior(HonestBehavior):
    """Rewrites every ``ok`` read reply into a refusal."""

    def outbound(self, keys, signer, dst, payload):
        if isinstance(payload, ReadReply) and payload.status == "ok":
            payload = dataclasses.replace(payload, status="behind",
                                          result=None, cert=None)
        return super().outbound(keys, signer, dst, payload)


def test_one_refusing_member_does_not_decide_a_zones_reads():
    """One member of z0 (within ``f``) refuses every read it is asked:
    z0's reads stay on the fast path. While the first refusal decided,
    five of six of them went through consensus and nobody was accused."""
    deployment, _ = loaded_zones(behaviors={"z0n1": RefusingBehavior()})
    monitor = monitored(deployment)
    deployment.sim.run(until=LOADED_MS)
    reads = [record.labels["read"]
             for client in deployment.clients.values()
             if client.current_zone == "z0"
             for record in client.completed if "read" in record.labels]
    assert reads.count("fast") / len(reads) >= 0.95
    assert len(reads) > 1_000
    assert monitor.clean, [v.kind for v in monitor.violations]


def test_one_lying_migrating_changes_nothing_and_two_honest_ones_decide():
    deployment, client = certified_zone()
    obs = Instrumentation(recording=True).attach(deployment)
    nodes = deployment.zone_nodes("z0")

    def read():
        client.submit_read(("balance",))
        deployment.sim.run(until=deployment.sim.now + 10.0)
        return client.completed[-1].labels["read"]

    nodes[0].locks.mark_stale("c1")
    assert [read() for _ in nodes] == ["fast"] * len(nodes)
    # The record really is in migration: f+1 members say so, and the
    # read takes the transactional path at once, not at its timeout.
    for node in nodes[1:]:
        node.locks.mark_stale("c1")
    submitted = deployment.sim.now
    client.submit_read(("balance",))
    deployment.sim.run(until=submitted + 10.0)
    (fallback,) = [e for e in obs.events if e.kind == "read.fallback"]
    assert fallback.fields["reason"] == "migrating"
    assert fallback.ts - submitted < client.reads.read_timeout_ms / 10


# ----------------------------------------------------------------------
# A lie is proven, not outvoted
# ----------------------------------------------------------------------
class SwappedResultBehavior(HonestBehavior):
    """Answers every served read with another value, under its genuine
    certificate and proof."""

    def outbound(self, keys, signer, dst, payload):
        if isinstance(payload, ReadReply) and payload.status == "ok":
            payload = dataclasses.replace(payload, result=1_000_000)
        return super().outbound(keys, signer, dst, payload)


def test_one_in_budget_liar_is_proven_wrong():
    """The asked member (within ``f``) swaps the value it serves. Its
    proof does not bind that value to the certified root, so it is booked
    as a fabricator, the read is asked of the other members, and an
    honest member's proof completes it — and is asked next time. While
    ``f+1`` matching answers decided, the two honest ones outvoted it and
    nobody was accused."""
    deployment = small_zones()
    monitor = monitored(deployment)
    client = deployment.add_client("c1", "z0")
    run_actions(deployment, client, [("local", ("deposit", 5))], step_ms=20.0)
    liar = next_asked(deployment, client)
    deployment.nodes[liar].set_behavior(SwappedResultBehavior())
    client.submit_read(("balance",))
    deployment.sim.run(until=deployment.sim.now + 20.0)
    record = client.completed[-1]
    assert record.result == ("ok", 10_005)
    assert record.labels == {"read": "fast"}
    assert [(v.kind, v.culprit, v.detail["reason"])
            for v in monitor.violations] \
        == [("read-fabrication", liar, "bad-proof")]
    assert next_asked(deployment, client) != liar


# ----------------------------------------------------------------------
# A proved path is folded once
# ----------------------------------------------------------------------
class ReshapedReadBehavior(HonestBehavior):
    """Serves every read with ``reshape`` applied to its genuine reply."""

    def __init__(self, reshape):
        self.reshape = reshape
        self.sent = None

    def outbound(self, keys, signer, dst, payload):
        if isinstance(payload, ReadReply) and payload.status == "ok":
            payload = self.sent = self.reshape(payload)
        return super().outbound(keys, signer, dst, payload)


def proved_once():
    """A monitored zone whose client ``c1`` has completed one fast read,
    so that it holds the path it proved; and the member it asks next."""
    deployment = small_zones()
    monitor = monitored(deployment)
    client = deployment.add_client("c1", "z0")
    run_actions(deployment, client, [("local", ("deposit", 5)),
                                     ("read", ("balance",))], step_ms=20.0)
    assert client.completed[-1].labels == {"read": "fast"}
    return deployment, monitor, client, next_asked(deployment, client)


def read_once(deployment, client):
    """Run one read of ``c1``'s balance; its completion record."""
    run_actions(deployment, client, [("read", ("balance",))], step_ms=20.0)
    return client.completed[-1]


def booked(monitor):
    return [(v.kind, v.culprit, v.detail["reason"])
            for v in monitor.violations]


@pytest.mark.parametrize("reshape", [
    # Another value under the same root and proof.
    lambda reply: dataclasses.replace(reply, result=1_000_000),
    # A value equal to the proved one by ``==``, of another leaf hash.
    lambda reply: dataclasses.replace(reply, result=float(reply.result)),
    # The same proof, equal in content (and signed alike), as a
    # ``bytearray``: not the ``bytes`` a proof is.
    lambda reply: dataclasses.replace(reply, proof=bytearray(reply.proof)),
], ids=["another-value", "an-equal-float", "a-bytearray-proof"])
def test_a_reply_that_repeats_the_proved_path_is_judged_as_the_fold_would(
        reshape):
    """The asked member repeats the root and proof the client proved
    last, reshaped. The client refuses it as the full fold does and books
    its sender; an honest member's repeat of the path completes the
    read."""
    deployment, monitor, client, liar = proved_once()
    proved = client._proved
    behavior = ReshapedReadBehavior(reshape)
    deployment.nodes[liar].set_behavior(behavior)
    record = read_once(deployment, client)
    assert record.result == ("ok", 10_005)
    assert type(record.result[1]) is int
    assert record.labels == {"read": "fast"}
    assert booked(monitor) == [("read-fabrication", liar, "bad-proof")]
    assert client._proved == proved
    # A refused path is not kept: the same lie is refused again.
    lie = behavior.sent
    key = client.read_key(("balance",), "c1")
    for _ in range(2):
        assert not client._binds(lie.cert.state_digest, key, lie.result,
                                 lie.proof)


def test_a_reply_under_a_new_certificate_is_folded_up_to_its_root(
        monkeypatch):
    """Once the zone certifies a new version, a reply is folded again,
    and the proved path proves nothing under it: the asked member's
    replay of the old value and proof beside the new certificate is
    refused."""
    from repro.core import client as client_module
    deployment, monitor, client, liar = proved_once()
    folds = []
    fold = client_module.fold_proof
    monkeypatch.setattr(client_module, "fold_proof",
                        lambda leaf, proof: folds.append(proof)
                        or fold(leaf, proof))
    assert read_once(deployment, client).result == ("ok", 10_005)
    assert folds == []
    root, old_proof, _ = client._proved
    # The first batch a zone executes in an epoch is what it certifies:
    # the second deposit, a whole epoch after the first.
    for _ in range(2):
        run_actions(deployment, client, [("local", ("deposit", 5))],
                    step_ms=client.reads.epoch_ms)
    deployment.nodes[liar].set_behavior(ReshapedReadBehavior(
        lambda reply: dataclasses.replace(reply, result=10_005,
                                          proof=old_proof)))
    record = read_once(deployment, client)
    assert record.result == ("ok", 10_015)
    assert record.labels == {"read": "fast"}
    assert booked(monitor) == [("read-fabrication", liar, "bad-proof")]
    assert client._proved[0] != root
    assert folds == [old_proof, client._proved[1]]


# ----------------------------------------------------------------------
# Ill-shaped messages are refused, not fatal
# ----------------------------------------------------------------------
def _reply(dep, client, **fields):
    """An ``ok`` reply of z0n3 to the client's read in flight."""
    genuine = dep.nodes["z0n3"].reads.cert
    cert = fields.pop("cert", genuine)
    if fields:
        cert = dataclasses.replace(genuine, **fields)
    return ReadReply(timestamp=client.timestamp, client_id="c1",
                     status="ok", result=("ok", 1), cert=cert,
                     sender="z0n3")


def _share(dep, client, **fields):
    body = watermark_body("z0", 2, b"s", 0.0)
    return dataclasses.replace(WatermarkShare(
        zone="z0", sequence=2, state_digest=b"s", watermark_ts=0.0,
        signature=dep.keys.sign("z0n3", body), sender="z0n3"), **fields)


def _request(dep, client, **fields):
    return ReadRequest(**{"operation": ("balance",), "timestamp": 99,
                          "sender": "c1", **fields})


ILL_SHAPED = {
    # name: (who sends it to whom, the message, what becomes of it).
    # "booked": a signed reply proves its sender lied; "dropped": refused
    # by the node and counted; "answered": with a refusal.
    "reply-cert-is-a-string":
        ("z0n3", "c1", _reply, {"cert": "cert"}, "booked"),
    "reply-cert-without-a-certificate":
        ("z0n3", "c1", _reply, {"certificate": None}, "booked"),
    "share-without-a-signature":
        ("z0n3", "z0n0", _share, {"signature": None}, "dropped"),
    "share-sequence-is-a-string":
        ("z0n3", "z0n0", _share, {"sequence": "9"}, "dropped"),
    "share-without-a-sequence":
        ("z0n3", "z0n0", _share, {"sequence": None}, "dropped"),
    "session-is-a-number":
        ("c1", "z0n0", _request, {"session": 5}, "dropped"),
    "session-is-one-flat-pair":
        ("c1", "z0n0", _request, {"session": ("z0", 3)}, "dropped"),
    "session-floor-is-a-string":
        ("c1", "z0n0", _request, {"session": (("z0", "9"),)}, "dropped"),
    "operation-is-a-number":
        ("c1", "z0n0", _request, {"operation": 5}, "answered"),
}


@pytest.mark.parametrize("name", sorted(ILL_SHAPED))
def test_an_ill_shaped_read_message_is_refused_and_the_run_goes_on(name):
    sender, target, make, fields, outcome = ILL_SHAPED[name]
    dep = read_ziziphus()
    monitor = monitored(dep)
    client = dep.add_client("c1", "z0")
    run_actions(dep, client, [("local", ("deposit", 5))], step_ms=20.0)
    client.submit_read(("balance",))
    replies = dep.network.stats.by_type["ReadReply"]
    inject(dep, sender, target, make(dep, client, **fields), settle_ms=10.0)
    # The read that was in flight completed on the honest answer.
    assert client.completed[-1].result == ("ok", 10_005)
    assert client.completed[-1].labels == {"read": "fast"}
    booked = {(v.kind, v.culprit, v.detail["reason"])
              for v in monitor.violations}
    refused = {node_id: node.invalid_messages
               for node_id, node in dep.nodes.items()
               if node.invalid_messages}
    # ReadReply messages beside the one honest answer to the read.
    answers = dep.network.stats.by_type["ReadReply"] - replies - 1
    assert (booked, refused, answers) == {
        # (the one reply is the lie itself)
        "booked": ({("read-fabrication", sender, "malformed-cert")}, {}, 1),
        "dropped": (set(), {target: 1}, 0),
        "answered": (set(), {}, 1),
    }[outcome]


# ----------------------------------------------------------------------
# Silence: reads disabled must leave no trace
# ----------------------------------------------------------------------
def test_write_only_run_emits_no_read_traffic():
    dep = small_ziziphus()          # reads disabled (the default)
    obs = Instrumentation(recording=True)
    obs.attach(dep)
    client = dep.add_client("c1", "z0")
    records = run_actions(dep, client, [
        ("local", ("deposit", 9)),
        ("migrate", "z1"),
        ("local", ("balance",)),
    ])
    assert records[-1].result == ("ok", 10_009)
    assert not any(e.kind.startswith("read.") for e in obs.events)
    for node in dep.nodes.values():
        assert not node.reads.enabled
        assert node.reads.cert is None          # no watermark ever formed
        assert node.reads._votes == {}          # no share ever arrived
    # submit_read degrades to submit_local when the path is disabled.
    more = run_actions(dep, client, [("read", ("balance",))])
    assert more[0].result == ("ok", 10_009)
    assert more[0].labels == {}


# ----------------------------------------------------------------------
# Bench plumbing: read columns and a clean monitor on honest runs
# ----------------------------------------------------------------------
def test_read_mix_point_reports_read_columns_and_stays_clean():
    spec = PointSpec(protocol="ziziphus", num_zones=3,
                     clients_per_zone=10, read_fraction=0.9,
                     warmup_ms=200.0, measure_ms=400.0, monitor=True,
                     record_trace=True)
    result = run_point(spec)
    row = result.row()
    assert row["read%"] == 90
    assert row["read_p50_ms"] > 0
    assert row["read_fast"] > 0.95
    # A read falls back only where it is declared to: here, a client that
    # migrated in after its new zone's certified version is not in that
    # version, so its reads are refused ``absent`` until the zone
    # certifies again (DESIGN.md §14.3) — about 2 % of this run's reads.
    # (A read before the zone's first certificate, all in the warm-up, is
    # refused ``no-watermark``.)
    reasons = [e.fields["reason"] for e in result.obs.events
               if e.kind == "read.fallback" and e.ts >= spec.warmup_ms]
    assert set(reasons) == {"absent"}
    assert result.monitor.clean, [v.kind for v in result.monitor.violations]


def test_write_only_point_has_no_read_columns():
    spec = PointSpec(protocol="ziziphus", num_zones=3,
                     clients_per_zone=10, warmup_ms=200.0, measure_ms=400.0)
    row = run_point(spec).row()
    assert "read%" not in row
    assert not any(key.startswith("read_") for key in row)
