"""Miscellaneous PBFT edge cases: water marks, deferral, equivocation."""

import pytest

from repro.errors import ConfigurationError
from repro.messages.base import Signed, sign_message
from repro.messages.pbft import Commit, Prepare, PrePrepare
from tests.test_pbft_normal import build_group, make_client, run_ops


def test_group_size_validation():
    from repro.app.banking import BankingApp
    from repro.consensus import pbft_profile
    from repro.pbft.replica import PBFTReplica
    sim, net, keys, group, nodes = build_group()
    with pytest.raises(ConfigurationError):
        PBFTReplica(host=nodes[0], group=("a", "b", "c"),
                    profile=pbft_profile(1), app=BankingApp())


def test_pre_prepare_outside_water_marks_ignored():
    sim, net, keys, group, nodes = build_group()
    replica = nodes[1].replica
    pp = PrePrepare(view=0, sequence=10_000_000, batch_digest=b"",
                    batch=(), sender="n0")
    env = sign_message(keys, "n0", pp)
    net.send("n0", "n1", env)
    sim.run(until=1_000)
    assert 10_000_000 not in replica.slots


def test_pre_prepare_from_non_primary_ignored():
    sim, net, keys, group, nodes = build_group()
    from repro.crypto.digest import digest
    pp = PrePrepare(view=0, sequence=1, batch_digest=digest(()),
                    batch=(), sender="n2")   # n2 is not the view-0 primary
    env = sign_message(keys, "n2", pp)
    net.send("n2", "n1", env)
    sim.run(until=1_000)
    slot = nodes[1].replica.slots.get(1)
    assert slot is None or slot.pre_prepare is None


def test_pre_prepare_with_wrong_batch_digest_ignored():
    sim, net, keys, group, nodes = build_group()
    pp = PrePrepare(view=0, sequence=1, batch_digest=b"wrong",
                    batch=(), sender="n0")
    env = sign_message(keys, "n0", pp)
    net.send("n0", "n1", env)
    sim.run(until=1_000)
    slot = nodes[1].replica.slots.get(1)
    assert slot is None or slot.pre_prepare is None


def test_future_view_messages_are_deferred_not_lost():
    sim, net, keys, group, nodes = build_group()
    replica = nodes[1].replica
    from repro.crypto.digest import digest
    pp = PrePrepare(view=3, sequence=1, batch_digest=digest(()),
                    batch=(), sender="n3")   # primary of view 3
    env = sign_message(keys, "n3", pp)
    net.send("n3", "n1", env)
    sim.run(until=1_000)
    assert len(replica._future) == 1
    # Once view 3 activates, the deferred message is replayed.
    replica.view = 3
    replica.view_active = True
    replica.replay_deferred()
    assert replica._future == []
    assert replica.slots[1].pre_prepare is not None


def test_commits_with_conflicting_digest_do_not_mix():
    sim, net, keys, group, nodes = build_group()
    client = make_client(sim, net, keys, group)
    done = run_ops(sim, client, [("open", 10)])
    assert done
    replica = nodes[1].replica
    # Inject a commit for an executed sequence with a different digest:
    # it must not disturb the slot.
    executed = {s: slot for s, slot in replica.slots.items() if slot.executed}
    if executed:
        seq, slot = next(iter(executed.items()))
        before = dict(slot.commits)
        fake = Commit(view=0, sequence=seq, batch_digest=b"other",
                      sender="n2")
        net.send("n2", "n1", sign_message(keys, "n2", fake))
        sim.run(until=sim.now + 1_000)
        assert slot.commits == before


def test_prepare_from_primary_is_not_counted():
    sim, net, keys, group, nodes = build_group()
    replica = nodes[1].replica
    prepare = Prepare(view=0, sequence=5, batch_digest=b"d", sender="n0")
    net.send("n0", "n1", sign_message(keys, "n0", prepare))
    sim.run(until=1_000)
    slot = replica.slots.get(5)
    assert slot is None or "n0" not in slot.prepare_envelopes


# ----------------------------------------------------------------------
# D15: a vote counts only if a member cast it for the slot's batch
# ----------------------------------------------------------------------
def _signed_request(keys, client, amount):
    from repro.messages.client import ClientRequest
    return sign_message(keys, client, ClientRequest(
        operation=("open", amount), timestamp=1, sender=client))


def test_votes_from_outside_the_group_do_not_count():
    """n2 and n3 are down, so n0 and n1 alone cannot commit sequence 1.
    Two signers outside the zone, x1 and x2, send both a PREPARE and a
    COMMIT for n0's batch: valid signatures, but not the zone's votes, so
    nothing commits (they used to make up the quorum, and n0 and n1
    executed the batch)."""
    from repro.crypto.digest import digest
    sim, net, keys, group, nodes = build_group()
    nodes[2].crash()
    nodes[3].crash()
    request = _signed_request(keys, "c1", 10)
    batch_digest = digest((request.payload,))
    nodes[0].replica.submit_request(request)
    sim.run(until=10)
    assert nodes[1].replica.slots[1].batch_digest == batch_digest
    for outsider in ("x1", "x2"):
        for vote in (Prepare, Commit):
            envelope = sign_message(keys, outsider, vote(
                view=0, sequence=1, batch_digest=batch_digest,
                sender=outsider))
            for node in nodes[:2]:
                node.deliver(outsider, envelope)
    sim.run(until=100)
    for node in nodes[:2]:
        slot = node.replica.slots[1]
        assert not slot.committed and node.replica.last_executed == 0
        assert not {"x1", "x2"} & (set(slot.prepare_envelopes)
                                   | set(slot.commits))


def test_votes_banked_before_the_pre_prepare_count_only_for_its_batch():
    """The primary n0 equivocates at sequence 1: n2 and n3 get batch B
    and commit it; n1 banks their PREPAREs and COMMITs for B before its
    own pre-prepare, for batch A, comes. Only votes for A count for A, so
    n1 commits nothing (it used to count B's votes for A, commit A and
    execute it where n2 and n3 executed B)."""
    from repro.crypto.digest import digest
    sim, net, keys, group, nodes = build_group()
    nodes[0].crash()
    a, b = _signed_request(keys, "c1", 10), _signed_request(keys, "c2", 20)

    def from_primary(payload, *to):
        envelope = sign_message(keys, "n0", payload)
        for node in to:
            node.deliver("n0", envelope)

    digest_b = digest((b.payload,))
    from_primary(PrePrepare(view=0, sequence=1, batch_digest=digest_b,
                            batch=(b,), sender="n0"), nodes[2], nodes[3])
    from_primary(Commit(view=0, sequence=1, batch_digest=digest_b,
                        sender="n0"), nodes[2], nodes[3])
    sim.run(until=50)
    for node in nodes[2:]:
        assert node.replica.last_executed == 1
    lagging = nodes[1].replica
    from_primary(PrePrepare(view=0, sequence=1,
                            batch_digest=digest((a.payload,)), batch=(a,),
                            sender="n0"), nodes[1])
    sim.run(until=100)
    slot = lagging.slots[1]
    assert not slot.committed and lagging.last_executed == 0
    assert not slot.prepare_envelopes and not slot.commits


# ----------------------------------------------------------------------
# Gap replies: a batch fills a gap once f+1 members report executing it
# ----------------------------------------------------------------------
def _as(keys, signer, payload, *to):
    envelope = sign_message(keys, signer, payload)
    for node in to:
        node.deliver(signer, envelope)


def test_an_equivocating_primary_cannot_fill_a_gap_and_a_filled_slot_votes_afresh():
    """The primary n0 equivocates at sequence 1: n1 gets batch A and
    prepares it, n2 and n3 get B and execute it. n0 alone then tells n1
    that it executed B: one report is not f+1, so n1 keeps A. All three
    commit C at 2; n1's request timer finds 1 below it and asks for the
    gap, n2 and n3 report B, and n1 executes B and C. Its slot 1 holds B
    without the prepare it sent for A (it used to count that prepare for
    B, and would sign a PREPARE for B it never sent when asked for the
    slot's proof)."""
    from repro.crypto.digest import digest
    from repro.messages.pbft import GapReply
    sim, net, keys, group, nodes = build_group()
    nodes[0].crash()
    a, b, c = (_signed_request(keys, client, amount)
               for client, amount in (("c1", 10), ("c2", 20), ("c3", 30)))
    lagging = nodes[1].replica

    def pre_prepare(sequence, request):
        return PrePrepare(view=0, sequence=sequence,
                          batch_digest=digest((request.payload,)),
                          batch=(request,), sender="n0")

    _as(keys, "n0", pre_prepare(1, a), nodes[1])
    _as(keys, "n0", pre_prepare(1, b), nodes[2], nodes[3])
    _as(keys, "n0", Commit(view=0, sequence=1,
                           batch_digest=digest((b.payload,)), sender="n0"),
        nodes[2], nodes[3])
    sim.run(until=20)
    assert [node.replica.last_executed for node in nodes[1:]] == [0, 1, 1]
    _as(keys, "n0", GapReply(pre_prepare=sign_message(
        keys, "n0", pre_prepare(1, b)), sender="n0"), nodes[1])
    _as(keys, "n0", pre_prepare(2, c), *nodes[1:])
    sim.run(until=40)
    slot = lagging.slots[1]
    assert slot.batch_digest == digest((a.payload,)) and slot.sent_prepare
    assert lagging.slots[2].committed and lagging.last_executed == 0
    sim.run(until=1_000)
    assert [node.replica.last_executed for node in nodes[1:]] == [2, 2, 2]
    assert lagging.slots[1].batch_digest == digest((b.payload,))
    assert "n1" not in lagging.prepared_by(lagging.slots[1])
    assert (lagging.app.balance_of("c1"), lagging.app.balance_of("c2")) \
        == (0, 20)
    assert (lagging.view, lagging.view_active) == (0, True)
