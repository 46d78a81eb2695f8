"""A late message gets today's answer (DESIGN.md §10).

What a node that has finished the work a message belongs to still does
with it: a vote after quorum, a re-sent pre-prepare, a re-lead, a watch
deadline that outlives its ballot, a late top-level vote, a
RESPONSE-QUERY. Those answers are the contract under which finished work
is let go (tests/test_retention.py has the budget), so these tests drive
the whole stack and assert what goes out on the wire — they do not look
at how a node stores a finished instance, and passed unchanged before
anything was retired.
"""

import pytest

from repro.crypto.digest import digest
from repro.messages.endorse import EndorsePrePrepare, EndorseVote
from repro.messages.query import ResponseQuery
from repro.messages.sync import (Accept, Accepted, Ballot, GENESIS_BALLOT,
                                 Promise, commit_body)
from repro.pbft.faults import make_behavior
from tests.conftest import (drive_to_completion, fast_sync, inject,
                            monitored, small_ziziphus)

BALLOT = Ballot(seq=1, zone_id="z0")


def migrated(**overrides):
    """Three zones; ``c1`` has moved z0 -> z1 under ballot 1.z0 and 40
    simulated seconds have passed, so every deadline armed on the way
    has fired. Returns the deployment, its monitor and the wire tape:
    every ``(src, dsts, envelope)`` that entered the network."""
    dep = small_ziziphus(**overrides)
    monitor = monitored(dep)
    tape = []
    multicast = dep.network.multicast

    def recording(src, dsts, message):
        dsts = tuple(dsts)
        tape.append((src, dsts, message))
        multicast(src, dsts, message)

    dep.network.multicast = recording
    client = dep.add_client("c1", "z0")
    records = drive_to_completion(dep, client, [("migrate", "z1")])
    assert records[0].result == ("migrated", "ok", "z1")
    for node in dep.nodes.values():
        assert [txn.executed for txn in node.sync.txns.values()] == [True]
    return dep, monitor, tape


def sent_by_type(dep):
    return dict(dep.network.stats.by_type)


def wire_delta(dep, before):
    """Messages that entered the network since ``before``, by type."""
    after = sent_by_type(dep)
    return {name: count - before.get(name, 0)
            for name, count in after.items() if count != before.get(name, 0)}


def deliver(dep, signer, target, payload):
    """``payload`` signed by ``signer`` reaches ``target``; settle."""
    before = sent_by_type(dep)
    inject(dep, signer, target, payload)
    delta = wire_delta(dep, before)
    name = type(payload).__name__
    delta[name] -= 1          # the injected message itself
    return {k: v for k, v in delta.items() if v}


def first(tape, payload_type, instance=None, src=None):
    for sender, _dsts, envelope in tape:
        payload = envelope.payload
        if isinstance(payload, payload_type) \
                and (instance is None or payload.instance == instance) \
                and (src is None or sender == src):
            return envelope
    raise AssertionError(f"no {payload_type.__name__} on the tape")


def views(dep):
    return {node.replica.view for node in dep.nodes.values()}


# ----------------------------------------------------------------------
# A late message gets today's answer
# ----------------------------------------------------------------------
def test_a_watch_that_outlives_its_ballot_starts_no_view_change():
    """Backups armed a primary-watch per endorsement they expected; all
    of those deadlines fired after the ballot executed (and, in the
    source zone, with the migration never 'applied' there)."""
    dep, monitor, _tape = migrated()
    assert views(dep) == {0}
    assert not monitor.violations


def test_a_fourth_vote_after_quorum_changes_nothing():
    dep, monitor, tape = migrated(behaviors={"z0n3": make_behavior("silent")})
    instance = f"gsync-accept/{BALLOT.key}"
    endorse_digest = first(tape, EndorsePrePrepare, instance) \
        .payload.endorse_digest
    vote = EndorseVote(instance=instance, view=0,
                       endorse_digest=endorse_digest,
                       share=dep.keys.sign("z0n3", endorse_digest),
                       sender="z0n3")
    for target in ("z0n0", "z0n1"):
        assert deliver(dep, "z0n3", target, vote) == {}
        assert dep.nodes[target].endorsement.has_instance(instance)
        assert dep.nodes[target].invalid_messages == 0
    assert views(dep) == {0} and not monitor.violations


def test_a_finished_instance_still_refuses_another_digest():
    dep, monitor, tape = migrated()
    instance = f"gsync-commit/{BALLOT.key}"
    original = first(tape, EndorsePrePrepare, instance).payload
    other = digest(("another body", original.endorse_digest))
    for view in (0, 1):    # not even a newer view re-opens a finished one
        rival = EndorsePrePrepare(instance=instance, view=view,
                                  payload=original.payload,
                                  endorse_digest=other,
                                  use_prepare=False, sender="z0n0")
        assert deliver(dep, "z0n0", "z0n2", rival) == {}
    state = dep.nodes["z0n2"].endorsement.instance_state(instance)
    assert state.endorse_digest == original.endorse_digest and state.done


def test_a_former_leader_casts_the_one_vote_it_owes_as_a_backup():
    """z0n0 led the commit endorsement (no prepare round): its share was
    counted where it led and went to nobody. When the next primary
    re-sends the pre-prepare, z0n0 is a backup and sends that primary its
    share — one message, not a multicast; and so does every member asked
    again, each time: a primary that asks holds no certificate, and the
    shares went to the leader alone. (Here z0n1 does hold it — it
    finished the round in view 0 and re-sent nothing, the pre-prepare is
    injected — so it answers each share, cast in view 1, with it.)"""
    dep, monitor, tape = migrated()
    instance = f"gsync-commit/{BALLOT.key}"
    original = first(tape, EndorsePrePrepare, instance).payload
    for node in dep.zone_nodes("z0"):
        node.replica.view = 1                  # z0n1 is the primary now
    resent = EndorsePrePrepare(instance=instance, view=1,
                               payload=original.payload,
                               endorse_digest=original.endorse_digest,
                               use_prepare=False, sender="z0n1")
    assert deliver(dep, "z0n1", "z0n0", resent) == {"EndorseVote": 2}
    assert deliver(dep, "z0n1", "z0n0", resent) == {"EndorseVote": 2}
    # A backup of the first round voted to z0n0 then, and now to z0n1.
    assert deliver(dep, "z0n1", "z0n2", resent) == {"EndorseVote": 2}
    assert not monitor.violations


def test_relead_of_a_finished_instance_hands_the_certificate_over():
    dep, monitor, tape = migrated(behaviors={"z0n3": make_behavior("silent")})
    node = dep.nodes["z0n0"]
    instance = f"gsync-commit/{BALLOT.key}"
    commit = node.sync.txns[BALLOT].commit_env.payload
    led = node.obs.value("endorse.led")
    before = sent_by_type(dep)
    certs = []
    assert node.endorsement.relead(instance, use_prepare=False,
                                   on_cert=certs.append)
    original = first(tape, EndorsePrePrepare, instance).payload
    node.endorsement.lead(instance, original.payload,
                          original.endorse_digest, use_prepare=False,
                          on_cert=certs.append)
    # At once, nothing on the wire, the certificate COMMIT carried.
    assert certs == [commit.cert, commit.cert]
    assert wire_delta(dep, before) == {}
    assert node.obs.value("endorse.led") == led + 2
    body = commit_body(BALLOT, GENESIS_BALLOT, digest(
        tuple(env.payload for env in commit.requests)))
    assert dep.directory.cert_valid(certs[0], body, "z0")
    assert not node.endorsement.relead("gsync-commit/9.z0", False,
                                       certs.append)


def test_a_late_accepted_is_checked_and_opens_nothing():
    dep, monitor, tape = migrated()
    accepted = first(tape, Accepted).payload
    for target in ("z0n0", "z0n2"):
        assert deliver(dep, accepted.sender, target, accepted) == {}
        assert dep.nodes[target].sync.txns[BALLOT].executed
    # One forged in the name of the zone is booked like any other.
    forged = Accepted(view=0, ballot=BALLOT, prev_ballot=GENESIS_BALLOT,
                      zone_id="z2", request_digest=accepted.request_digest,
                      cert=accepted.cert, checkpoint=None, sender="z2n0")
    assert deliver(dep, "z2n0", "z0n0", forged) == {}
    assert [(v.kind, v.culprit) for v in monitor.violations] \
        == [("cert-invalid", "z2n0")]


def test_a_late_promise_is_checked_and_opens_nothing():
    dep, monitor, tape = migrated(sync=fast_sync(stable_leader=False))
    ballot = next(iter(dep.nodes["z1n0"].sync.txns))
    promise = first(tape, Promise).payload
    for target in dep.directory.zone(ballot.zone_id).members[:2]:
        assert deliver(dep, promise.sender, target, promise) == {}
    assert views(dep) == {0} and not monitor.violations


def test_response_queries_for_an_executed_ballot_are_still_answered():
    dep, monitor, tape = migrated()

    def query(phase, sender):
        return ResponseQuery(view=0, ballot=BALLOT, phase=phase,
                             sender=sender)

    # commit: any node that holds the COMMIT forwards it.
    assert deliver(dep, "z2n1", "z0n2", query("commit", "z2n1")) \
        == {"GlobalCommit": 1}
    # A lost ACCEPTED is asked for by re-sending the ACCEPT: the follower
    # zone's primary re-certifies from what it banked and re-sends
    # ACCEPTED to the initiator zone; a backup is mute.
    accept = first(tape, Accept).payload
    assert deliver(dep, accept.sender, "z1n0", accept) == {"Accepted": 4}
    assert deliver(dep, accept.sender, "z1n2", accept) == {}
    # state: each of the source zone's f+1 proxies (z0n0 and z0n1 in view
    # 0) builds the STATE from the group's certificate; the others are
    # mute, so at most f+1 answers go out.
    assert [deliver(dep, "z1n3", target, query("state", "z1n3"))
            for target in dep.directory.zone("z0").members] \
        == [{"StateTransfer": 1}] * 2 + [{}] * 2
    for node in dep.zone_nodes("z1"):
        assert node.migration.migrations_applied == 1
    assert views(dep) == {0} and not monitor.violations


@pytest.mark.parametrize("phase,ballot", [("commit", Ballot(99, "z0")),
                                          ("state", BALLOT)],
                         ids=["commit", "state"])
def test_a_query_signed_outside_every_zone_is_dropped(phase, ballot):
    """Client ``c9`` signs a query: it is dropped on receipt, before it is
    audited. (A COMMIT query reached the tally, whose ``zone_of`` raised
    ``KeyError`` and ended the run; a STATE query names the group by the
    signer's zone.)"""
    dep, monitor, _tape = migrated()
    dep.add_client("c9", "z0")
    node = dep.nodes["z0n1"]
    audited = node.query_audit.total_queries
    assert deliver(dep, "c9", "z0n1", ResponseQuery(
        view=0, ballot=ballot, phase=phase, sender="c9")) == {}
    assert node.query_audit.total_queries == audited
    assert views(dep) == {0} and not monitor.violations
