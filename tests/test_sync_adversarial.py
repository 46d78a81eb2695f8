"""Adversarial message-validation tests for the global protocols.

These inject hand-crafted invalid top-level messages (bad certificates,
forged batches, replayed ballots) straight into nodes and assert they are
rejected — the Byzantine-confinement property that lets Ziziphus run a
CFT-style protocol at the top level.
"""

from repro.core.sync_protocol import AcceptedContext
from repro.crypto.certificates import QuorumCertificate
from repro.crypto.digest import digest
from repro.messages.base import sign_message
from repro.messages.client import MigrationRequest
from repro.messages.endorse import EndorsePrePrepare
from repro.messages.sync import (Accept, Ballot, GENESIS_BALLOT, GlobalCommit,
                                 accept_body, accepted_body, commit_body)


def signed_migration(dep, client="c1", ts=50, src="z0", dst="z1"):
    request = MigrationRequest(operation=("migrate", client, src, dst),
                               timestamp=ts, sender=client,
                               source_zone=src, dest_zone=dst)
    return sign_message(dep.keys, client, request)


def cert_over(dep, body, signers):
    return QuorumCertificate.aggregate(
        body, [dep.keys.sign(s, body) for s in signers])


def deliver(dep, target_node, payload, signer):
    envelope = sign_message(dep.keys, signer, payload)
    dep.network.send(signer, target_node, envelope)
    dep.run(dep.sim.now + 5_000)


def test_accept_with_undersized_cert_rejected(ziziphus3):
    dep = ziziphus3
    dep.add_client("c1", "z0")
    env = signed_migration(dep)
    ballot = Ballot(seq=1, zone_id="z0")
    body = accept_body(ballot, GENESIS_BALLOT, digest((env.payload,)))
    weak_cert = cert_over(dep, body, ["z0n0", "z0n1"])  # only 2 < 2f+1
    accept = Accept(view=0, ballot=ballot, prev_ballot=GENESIS_BALLOT,
                    request_digest=digest((env.payload,)), cert=weak_cert,
                    sender="z0n0", requests=(env,))
    deliver(dep, "z1n0", accept, "z0n0")
    assert dep.nodes["z1n0"].sync.last_accepted == GENESIS_BALLOT


def test_accept_with_foreign_zone_signers_rejected(ziziphus3):
    dep = ziziphus3
    dep.add_client("c1", "z0")
    env = signed_migration(dep)
    ballot = Ballot(seq=1, zone_id="z0")
    body = accept_body(ballot, GENESIS_BALLOT, digest((env.payload,)))
    # 3 valid signatures — but from z2's members, not the initiator zone.
    alien_cert = cert_over(dep, body, ["z2n0", "z2n1", "z2n2"])
    accept = Accept(view=0, ballot=ballot, prev_ballot=GENESIS_BALLOT,
                    request_digest=digest((env.payload,)), cert=alien_cert,
                    sender="z0n0", requests=(env,))
    deliver(dep, "z1n0", accept, "z0n0")
    assert dep.nodes["z1n0"].sync.last_accepted == GENESIS_BALLOT


def test_accept_with_swapped_batch_rejected(ziziphus3):
    dep = ziziphus3
    dep.add_client("c1", "z0")
    dep.add_client("evil", "z0")
    env = signed_migration(dep)
    # Certificate over the real batch, but a different batch attached.
    ballot = Ballot(seq=1, zone_id="z0")
    real_digest = digest((env.payload,))
    body = accept_body(ballot, GENESIS_BALLOT, real_digest)
    cert = cert_over(dep, body, ["z0n0", "z0n1", "z0n2"])
    forged = signed_migration(dep, client="evil", ts=51, src="z0", dst="z2")
    accept = Accept(view=0, ballot=ballot, prev_ballot=GENESIS_BALLOT,
                    request_digest=real_digest, cert=cert,
                    sender="z0n0", requests=(forged,))
    deliver(dep, "z1n0", accept, "z0n0")
    txn = dep.nodes["z1n0"].sync.txns.get(ballot)
    assert txn is None or not txn.batch, \
        "a batch that does not match the certified digest must not stick"


def test_commit_with_bad_cert_never_executes(ziziphus3):
    dep = ziziphus3
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
    node = dep.nodes["z2n1"]
    assert not node.sync.executed_results
    assert node.metadata.client_zone["c1"] == "z0"


def test_valid_commit_from_majority_is_executed_directly(ziziphus3):
    """The converse: a commit with a genuine 2f+1 certificate is
    self-sufficient — a node that missed every earlier phase executes it
    (this is what makes catch-up possible)."""
    dep = ziziphus3
    dep.add_client("c1", "z0")
    env = signed_migration(dep)
    ballot = Ballot(seq=1, zone_id="z0")
    body = commit_body(ballot, GENESIS_BALLOT, digest((env.payload,)))
    cert = cert_over(dep, body, ["z0n0", "z0n1", "z0n2"])
    commit = GlobalCommit(view=0, ballot=ballot,
                          prev_ballot=GENESIS_BALLOT, requests=(env,),
                          cert=cert, checkpoints=(), sender="z0n0")
    deliver(dep, "z2n1", commit, "z0n0")
    node = dep.nodes["z2n1"]
    assert node.metadata.client_zone["c1"] == "z1"


def test_replayed_commit_executes_once(ziziphus3):
    dep = ziziphus3
    dep.add_client("c1", "z0")
    env = signed_migration(dep)
    ballot = Ballot(seq=1, zone_id="z0")
    body = commit_body(ballot, GENESIS_BALLOT, digest((env.payload,)))
    cert = cert_over(dep, body, ["z0n0", "z0n1", "z0n2"])
    commit = GlobalCommit(view=0, ballot=ballot,
                          prev_ballot=GENESIS_BALLOT, requests=(env,),
                          cert=cert, checkpoints=(), sender="z0n0")
    deliver(dep, "z2n1", commit, "z0n0")
    deliver(dep, "z2n1", commit, "z0n0")
    node = dep.nodes["z2n1"]
    assert node.metadata.migrations_per_client["c1"] == 1


def accepted_pre_prepare(dep, claimed, certified):
    """z1's primary asks its zone to endorse ACCEPTED for ballot ``claimed``
    on the evidence of a certified ACCEPT for ballot ``certified``."""
    env = signed_migration(dep)
    request_digest = digest((env.payload,))
    body = accept_body(certified, GENESIS_BALLOT, request_digest)
    accept = Accept(view=0, ballot=certified, prev_ballot=GENESIS_BALLOT,
                    request_digest=request_digest, sender="z0n0",
                    cert=cert_over(dep, body, ["z0n0", "z0n1", "z0n2"]),
                    requests=(env,))
    context = AcceptedContext(ballot=claimed, prev_ballot=GENESIS_BALLOT,
                              zone_id="z1", accept=accept)
    return EndorsePrePrepare(
        instance=f"gsync-accepted/{claimed.key}", view=0, payload=context,
        endorse_digest=accepted_body(claimed, GENESIS_BALLOT, "z1",
                                     request_digest),
        use_prepare=False, sender="z1n0")


def test_accepted_context_for_another_ballot_is_not_endorsed(ziziphus3):
    """A Byzantine zone primary cannot have its zone certify ACCEPTED for
    a ballot whose ACCEPT it never showed: the context's ballot must be
    the wrapped (certified) ACCEPT's."""
    dep = ziziphus3
    dep.add_client("c1", "z0")
    claimed, certified = Ballot(seq=2, zone_id="z0"), Ballot(seq=1, zone_id="z0")
    pre_prepare = accepted_pre_prepare(dep, claimed, certified)
    deliver(dep, "z1n1", pre_prepare, "z1n0")
    node = dep.nodes["z1n1"]
    assert not node.endorsement.has_instance(pre_prepare.instance)
    assert not node.sync.accepted_seqs and not node.sync.txns


def test_accepted_context_for_the_certified_ballot_is_endorsed(ziziphus3):
    dep = ziziphus3
    dep.add_client("c1", "z0")
    ballot = Ballot(seq=1, zone_id="z0")
    pre_prepare = accepted_pre_prepare(dep, ballot, ballot)
    deliver(dep, "z1n1", pre_prepare, "z1n0")
    node = dep.nodes["z1n1"]
    assert node.endorsement.instance_state(pre_prepare.instance).voted
    assert node.sync.accepted_seqs == {1: "z0"}
