"""PBFT view-change tests: liveness under primary failure."""

import dataclasses

import pytest

from repro.analysis.complexity import catch_up_messages
from repro.crypto.digest import digest
from repro.messages.base import sign_message
from repro.messages.client import ClientRequest
from repro.messages.pbft import (CheckpointFetch, NewView, PreparedProof,
                                 PrePrepare, ProofFetch, ViewChange)
from tests.test_pbft_normal import build_group, make_client, run_ops


def test_crashed_primary_is_replaced_and_request_completes():
    sim, net, keys, group, nodes = build_group()
    client = make_client(sim, net, keys, group)
    nodes[0].crash()
    done = run_ops(sim, client, [("open", 100), ("deposit", 25)])
    assert [r.result for r in done] == [("ok", 100), ("ok", 125)]
    for node in nodes[1:]:
        assert node.replica.view >= 1
        assert node.replica.view_active
        assert node.replica.app.balance_of("c1") == 125


def test_second_request_after_view_change_is_fast():
    sim, net, keys, group, nodes = build_group()
    client = make_client(sim, net, keys, group)
    nodes[0].crash()
    done = run_ops(sim, client, [("open", 1), ("deposit", 1)])
    # The first request pays the fail-over; the second runs normally.
    assert done[0].latency_ms > 100
    assert done[1].latency_ms < 20


def test_consecutive_primary_failures_cascade_views():
    sim, net, keys, group, nodes = build_group(n=7, f=2)
    client = make_client(sim, net, keys, group, f=2)
    nodes[0].crash()
    nodes[1].crash()
    done = run_ops(sim, client, [("open", 9)], until=120_000)
    assert done and done[0].result == ("ok", 9)
    views = {n.replica.view for n in nodes[2:]}
    assert views == {2}, f"should settle in view 2, got {views}"


def test_prepared_request_survives_view_change():
    """A request prepared in view v must keep its slot in view v+1
    (the prepared-proof carry-over in NEW-VIEW)."""
    sim, net, keys, group, nodes = build_group()
    client = make_client(sim, net, keys, group)
    done = run_ops(sim, client, [("open", 7)])
    assert done[0].result == ("ok", 7)
    sequence = nodes[1].replica.last_executed
    # Force a view change after commit; the slot must not be re-executed.
    for node in nodes[1:]:
        node.replica.view_changes.initiate(1)
    sim.run(until=sim.now + 5_000)
    for node in nodes[1:]:
        assert node.replica.view == 1
        assert node.replica.view_active
        assert node.replica.last_executed >= sequence
        assert node.replica.app.balance_of("c1") == 7
    # And the group still works in the new view.
    done = run_ops(sim, client, [("deposit", 3)])
    assert done[0].result == ("ok", 10)


def test_view_change_does_not_double_execute():
    sim, net, keys, group, nodes = build_group()
    client = make_client(sim, net, keys, group)
    run_ops(sim, client, [("open", 100), ("deposit", 10)])
    executed = {n.node_id: n.replica.executed_requests for n in nodes}
    for node in nodes:
        node.replica.view_changes.initiate(1)
    sim.run(until=sim.now + 5_000)
    for node in nodes:
        assert node.replica.executed_requests == executed[node.node_id]
        assert node.replica.app.balance_of("c1") == 110


def test_view_change_stalls_under_partition_and_completes_on_heal():
    """A mid-run partition that blocks the view-change quorum must only
    delay the fail-over, not wedge it: once the partition heals, the
    survivors converge on a common view and the pending request commits."""
    sim, net, keys, group, nodes = build_group()
    client = make_client(sim, net, keys, group)
    done = run_ops(sim, client, [("open", 50)])
    assert done[0].result == ("ok", 50)

    # Crash the primary AND split the three survivors 2|1: no group of
    # 2f+1 replicas can exchange view-change messages, so the fail-over
    # cannot complete while the partition holds.
    nodes[0].crash()
    net.set_partition([("n1", "n2", "c1"), ("n3",)])
    completed = []
    client.on_complete = completed.append
    client.submit(("deposit", 5))
    sim.run(until=sim.now + 3_000)
    assert completed == []
    # The majority side keeps timing out into ever-higher views without
    # ever activating one; the minority replica is stuck in the old view.
    assert not any(n.replica.view_active and n.replica.view >= 1
                   for n in nodes[1:])

    net.set_partition(None)
    sim.run(until=sim.now + 10_000)
    assert [r.result for r in completed] == [("ok", 55)]
    views = {n.replica.view for n in nodes[1:]}
    assert len(views) == 1 and views.pop() >= 1
    for node in nodes[1:]:
        assert node.replica.view_active
        assert node.replica.app.balance_of("c1") == 55


def test_isolated_primary_rejoins_via_checkpoint_after_heal():
    """Primary isolated by a partition at t, healed at t+Δ: the
    survivors fail over and keep serving during the split, and after
    the heal the stale ex-primary re-converges through checkpoint state
    transfer once the zone crosses its next stable checkpoint. (The
    campaign-level twin of this — watchdog clearing included — is the
    `primary-isolated-heals` chaos scenario.)"""
    sim, net, keys, group, nodes = build_group(checkpoint_period=5)
    client = make_client(sim, net, keys, group)
    done = run_ops(sim, client, [("open", 10)])
    assert done[0].result == ("ok", 10)

    net.set_partition([("n0",), ("n1", "n2", "n3", "c1")])
    done = run_ops(sim, client, [("deposit", 5)])
    assert done[0].result == ("ok", 15)            # fail-over succeeded
    assert all(n.replica.view == 1 for n in nodes[1:])
    assert nodes[0].replica.last_executed == 1     # stale behind the split

    net.set_partition(None)
    done = run_ops(sim, client, [("deposit", 1)] * 6)
    assert [r.result for r in done] == [("ok", v) for v in range(16, 22)]
    sim.run(until=sim.now + 5_000)
    # Sequences 2-5 were garbage-collected zone-wide at the checkpoint,
    # so the snapshot fetch is the ex-primary's only way back.
    stale = nodes[0].replica
    assert stale.last_executed >= 5
    assert stale.app.balance_of("c1") >= 18


def test_progress_resumes_after_primary_recovers_in_new_view():
    sim, net, keys, group, nodes = build_group()
    client = make_client(sim, net, keys, group)
    nodes[0].crash()
    done = run_ops(sim, client, [("open", 4)])
    assert done[0].result == ("ok", 4)
    nodes[0].recover()
    done = run_ops(sim, client, [("deposit", 4)])
    assert done[0].result == ("ok", 8)


def test_a_recovered_backup_does_not_suspect_its_primary_over_its_own_gap():
    """n1 crashes and misses sequences 2-6 while the zone checkpoints at 4;
    back, it commits 7 with the zone but cannot execute it. 2f+1 committed
    7, so when n1's request timer fires (150 ms) it waits one more request
    timeout for the zone's next stable checkpoint instead of starting a
    view change alone (a lone VIEW-CHANGE takes it out of the zone until
    the zone changes view; the `crash-backup-churn` chaos scenario's
    stall)."""
    sim, net, keys, group, nodes = build_group(checkpoint_period=4)
    client = make_client(sim, net, keys, group)
    run_ops(sim, client, [("open", 10)])
    nodes[1].crash()
    run_ops(sim, client, [("deposit", 1)] * 5)
    nodes[1].recover()
    done = run_ops(sim, client, [("deposit", 1)], until=200)
    assert done[0].result == ("ok", 16)
    lagging = nodes[1].replica
    assert lagging.slots[7].committed and lagging.last_executed == 1
    assert (lagging.view, lagging.view_active) == (0, True)
    # The checkpoint at 8 carries it over the gap within that timeout,
    # and it votes on.
    done = run_ops(sim, client, [("deposit", 1)] * 2)
    assert [r.result for r in done] == [("ok", 17), ("ok", 18)]
    assert lagging.last_executed == 9
    assert {n.replica.view for n in nodes} == {0}


def test_a_backup_cut_off_inside_a_checkpoint_interval_is_sent_its_gap():
    """n1 is cut off while the zone executes 2 and 3, with no checkpoint
    to fetch; back, it commits 4 with the zone but cannot execute it. Its
    request timer asks the zone for the gap, and each member answers with
    one GAP-REPLY (the slot's pre-prepare) per slot it executed from 2 on:
    once two members report a batch, n1 executes it, so 2-4 in view 0,
    before it would have suspected anyone. Asking again gets nothing
    more."""
    sim, net, keys, group, nodes = build_group(checkpoint_period=100)
    client = make_client(sim, net, keys, group)
    run_ops(sim, client, [("open", 10)])
    net.set_partition([("n0", "n2", "n3", "c1"), ("n1",)])
    run_ops(sim, client, [("deposit", 1)] * 2)
    net.set_partition(None)
    sent = []
    multicast = net.multicast

    def tap(src, dsts, message):
        dsts = tuple(dsts)
        if (src == "n1" or dsts == ("n1",)) and "c1" not in (src, *dsts):
            sent.extend(type(message.payload).__name__ for _ in dsts)
        multicast(src, dsts, message)

    net.multicast = tap
    done = run_ops(sim, client, [("deposit", 1)], until=200)
    assert done[0].result == ("ok", 13)
    lagging = nodes[1].replica
    assert (lagging.view, lagging.view_active) == (0, True)
    assert lagging.last_executed == 4 and lagging.app.balance_of("c1") == 13
    # One ask to each of the three others, and three members times three
    # slots (2-4) of replies: the price of a gap of three in a zone of
    # four. (Replaying each member's own pre-prepare, prepare and commit
    # took 24 messages.)
    fetches, replies = catch_up_messages(4, 3)
    assert (fetches, replies) == (3, 9)
    assert sent.count("CheckpointFetch") == fetches
    assert sent.count("GapReply") == replies
    ask = CheckpointFetch(sequence=2, sender="n1")
    for _ in range(3):
        for member in ("n0", "n2", "n3"):
            net.send("n1", member, sign_message(keys, "n1", ask))
        sim.run(until=sim.now + 50)
    assert sent.count("GapReply") == replies


def test_a_primary_that_skips_a_sequence_is_replaced():
    """The primary assigns 3 and never 2: the zone commits 3, and nobody
    can execute it. Each replica's request timer finds 3 committed behind
    a gap, waits one more request timeout in case the gap is its own, and
    — nothing having executed meanwhile — suspects the primary. The new
    view fills 2 with a no-op and executes 3."""
    sim, net, keys, group, nodes = build_group()
    client = make_client(sim, net, keys, group)
    run_ops(sim, client, [("open", 10)])
    nodes[0].replica.next_sequence += 1
    done = run_ops(sim, client, [("deposit", 5)], until=5_000)
    assert [r.result for r in done] == [("ok", 15)]
    for node in nodes:
        replica = node.replica
        assert (replica.view, replica.view_active) == (1, True)
        assert replica.last_executed == 3
        assert replica.app.balance_of("c1") == 15


def test_a_replica_back_in_a_view_its_zone_left_joins_the_zone():
    """n0, primary of view 0, crashes; the others move to view 1 without
    it. Back, n0 still believes itself primary of view 0 — until f+1
    members' messages of view 1 reach it: it asks for view 1, n1 (which
    leads it) sends its NEW-VIEW again, and n0 works in view 1."""
    sim, net, keys, group, nodes = build_group(checkpoint_period=2)
    client = make_client(sim, net, keys, group)
    nodes[0].crash()
    assert run_ops(sim, client, [("open", 4)])[0].result == ("ok", 4)
    assert {n.replica.view for n in nodes[1:]} == {1}
    nodes[0].recover()
    assert (nodes[0].replica.view, nodes[0].replica.view_active) == (0, True)
    done = run_ops(sim, client, [("deposit", 4)] * 3)
    assert [r.result for r in done] == [("ok", 8), ("ok", 12), ("ok", 16)]
    rejoined = nodes[0].replica
    assert (rejoined.view, rejoined.view_active) == (1, True)
    assert rejoined.last_executed == nodes[1].replica.last_executed
    assert rejoined.app.balance_of("c1") == 16


def test_a_replica_back_after_its_zone_pruned_the_proven_slots_joins_it():
    """n6 is cut off while the zone commits 1-3; n0 crashes and the other
    five move to view 1, whose NEW-VIEW names 1-3 by reference; the zone
    goes on past its checkpoint at 8 and prunes them. Back, n6 asks for
    view 1 and gets that NEW-VIEW, but nobody can send it the originals
    any more. The next stable checkpoint covers them, and n6 adopts the
    NEW-VIEW without them."""
    sim, net, keys, group, nodes = build_group(n=7, f=2, checkpoint_period=4)
    client = make_client(sim, net, keys, group, f=2)
    everyone = set(group) | {"c1"}
    net.set_partition([everyone - {"n6"}, {"n6"}])
    assert len(run_ops(sim, client, [("open", 1)] + [("deposit", 1)] * 2,
                       until=500)) == 3
    nodes[0].crash()
    for node in nodes[1:6]:
        node.replica.view_changes.initiate(1)
    done = run_ops(sim, client, [("deposit", 1)] * 6, until=2_000)
    assert len(done) == 6 and nodes[1].replica.low_water_mark == 8
    net.set_partition(None)
    done = run_ops(sim, client, [("deposit", 1)] * 6, until=3_000)
    assert [r.result for r in done][-1] == ("ok", 15)
    back = nodes[6].replica
    assert (back.view, back.view_active) == (1, True)
    assert back.low_water_mark >= 12
    assert back.app.balance_of("c1") == nodes[1].replica.app.balance_of("c1")


def test_a_member_asking_again_for_the_view_gets_its_new_view_once():
    """However often a member re-sends its VIEW-CHANGE for the view in
    force, the view's primary sends it the NEW-VIEW once."""
    sim, net, keys, group, nodes = build_group()
    client = make_client(sim, net, keys, group)
    nodes[0].crash()
    assert run_ops(sim, client, [("open", 4)])[0].result == ("ok", 4)
    assert nodes[1].replica.is_primary
    nodes[0].recover()
    resent = []
    multicast = net.multicast

    def tap(src, dsts, message):
        dsts = tuple(dsts)
        if src == "n1" and dsts == ("n0",) \
                and isinstance(message.payload, NewView):
            resent.append(message)
        multicast(src, dsts, message)

    net.multicast = tap
    ask = ViewChange(new_view=1, last_stable_sequence=0, prepared_proofs=(),
                     sender="n0")
    for _ in range(3):
        net.send("n0", "n1", sign_message(keys, "n0", ask))
        sim.run(until=sim.now + 50)
    assert len(resent) == 1
    assert (nodes[0].replica.view, nodes[0].replica.view_active) == (1, True)


# ----------------------------------------------------------------------
# Request timers judge only the view they were armed in
# ----------------------------------------------------------------------
def test_one_primary_crash_costs_one_view_change():
    """Six closed-loop clients keep six request timers pending when n0
    crashes. Only the first to fire suspects n0; the others were armed in
    view 0 and judge nobody once their replica left it, so every live
    replica ends in view 1 (each used to climb one view more, to 6)."""
    sim, net, keys, group, nodes = build_group(
        batch_size=8, batch_timeout_ms=1.0, request_timeout_ms=250.0,
        view_change_timeout_ms=500.0)
    clients = [make_client(sim, net, keys, group, client_id=f"c{i}")
               for i in range(6)]
    done = dict.fromkeys((c.node_id for c in clients), 0)
    for client in clients:
        def loop(record=None, client=client):
            if record is not None:
                done[client.node_id] += 1
            client.submit(("deposit", 1) if done[client.node_id]
                          else ("open", 1))
        client.on_complete = loop
        sim.schedule(0.0, loop)
    sim.schedule(100.0, nodes[0].crash)
    sim.run(until=2_000.0)
    assert [(n.replica.view, n.replica.view_active) for n in nodes[1:]] \
        == [(1, True)] * 3
    assert min(done.values()) > 100


def _pending_at(nodes, keys, replica_index=2):
    """A client request only ``nodes[replica_index]`` holds, pending."""
    request = ClientRequest(operation=("open", 1), timestamp=1, sender="c9")
    envelope = sign_message(keys, "c9", request)
    nodes[replica_index].replica.submit_request(envelope)
    return request.key


def test_a_request_timer_armed_in_a_view_left_judges_nobody():
    """n2's timer for a request n0 never proposes is armed in view 0. n2
    starts a view change alone before it fires; when it fires, n2 is no
    longer in view 0, so it does not move on to view 2 (escalating is the
    view-change timer's job)."""
    sim, net, keys, group, nodes = build_group()
    nodes[0].crash()
    _pending_at(nodes, keys)
    lone = nodes[2].replica
    sim.schedule(100.0, lone.view_changes.initiate, 1)
    sim.run(until=250.0)
    assert (lone.view, lone.view_active) == (1, False)


def test_a_request_pending_after_new_view_is_watched_in_the_new_view():
    """n2 holds a request pending when the zone moves to view 1; its
    timer from view 0 is replaced by one judging view 1. The new primary
    n1 falls silent, so that timer fires and n2 suspects n1 — a stale
    timer that were only dropped would leave the request unguarded."""
    sim, net, keys, group, nodes = build_group()
    nodes[0].crash()
    key = _pending_at(nodes, keys)
    suspected = []
    watcher = nodes[2].replica
    suspect = watcher.view_changes.suspect
    watcher.view_changes.suspect = lambda armed_in: (
        suspected.append((sim.now, armed_in)), suspect(armed_in))
    nodes[1].replica.on_view_change.append(
        lambda: nodes[1].set_behavior("silent"))
    for node in nodes[1:]:
        sim.schedule(50.0, node.replica.view_changes.initiate, 1)
    sim.run(until=120.0)
    assert (watcher.view, watcher.view_active) == (1, True)
    assert key in watcher.pending
    assert watcher.request_timers[key][0] == 1
    sim.run(until=400.0)
    assert [armed_in for _, armed_in in suspected] == [1]
    assert 200.0 < suspected[0][0] < 210.0


# ----------------------------------------------------------------------
# Prepared proofs by reference, NEW-VIEW checked by recompute
# ----------------------------------------------------------------------
def _drop_to(net, member, type_name):
    """Drop every message of ``type_name`` on its way to ``member``;
    returns the undo."""
    multicast = net.multicast

    def lossy(src, dsts, message):
        if type(message.payload).__name__ == type_name:
            dsts = tuple(d for d in dsts if d != member)
        multicast(src, dsts, message)

    net.multicast = lossy
    return lambda: setattr(net, "multicast", multicast)


def _committed_without(member, **config):
    """A zone of four commits ``open 10`` at sequence 1 while ``member``
    never receives its pre-prepare; then the primary n0 crashes."""
    sim, net, keys, group, nodes = build_group(**config)
    client = make_client(sim, net, keys, group)
    undo = _drop_to(net, member, "PrePrepare")
    assert run_ops(sim, client, [("open", 10)], until=100)[0].result \
        == ("ok", 10)
    undo()
    nodes[0].crash()
    assert nodes[int(member[1:])].replica.slots[1].pre_prepare is None
    return sim, net, keys, client, nodes


def test_a_new_primary_missing_a_proven_batch_fetches_and_reproposes_it():
    """n1 never receives n0's pre-prepare for sequence 1, which n0, n2
    and n3 prepare and execute. n0 crashes, and n1 leads view 1: the
    proofs name batch 1 by reference, which n1 cannot match, so it asks
    each proof's sender (n2 and n3) for the signed originals, holds its
    NEW-VIEW until they verify, and re-proposes the batch (a proven
    sequence is never filled with a no-op). n2 and n3 executed it in view
    0 and take no part in the re-proposal, so n1 cannot execute 1 or 2;
    its request timer asks the zone for the gap, n2 and n3 report that
    they executed 1 and 2, and n1 executes both, in view 1 (ROADMAP
    D1(v); n1 used to leave alone for view 2)."""
    sim, net, keys, client, nodes = _committed_without("n1")
    proven = nodes[2].replica.slots[1]
    fresh = nodes[1].replica
    done = run_ops(sim, client, [("deposit", 5)], until=700)
    assert [r.result for r in done] == [("ok", 15)]
    assert (net.stats.by_type["ProofFetch"],
            net.stats.by_type["ProofReply"]) == (2, 2)
    reproposed = fresh.slots[1]
    assert reproposed.pre_prepare.payload.view == 1
    assert reproposed.batch_digest == proven.batch_digest
    assert reproposed.batch == proven.batch
    for node in nodes[2:]:
        replica = node.replica
        assert (replica.view, replica.view_active) == (1, True)
        assert replica.last_executed == 2
        assert replica.app.balance_of("c1") == 15
    sim.run(until=5_000)
    assert (fresh.view, fresh.view_active) == (1, True)
    assert fresh.last_executed == 2 and fresh.app.balance_of("c1") == 15
    assert fresh.slots[1].committed and fresh.slots[1].view == 1


def test_a_batch_committed_while_a_backup_missed_it_survives_the_view_change():
    """D12. n3 misses n0's pre-prepare for sequence 1, which the other
    three commit and execute; n0 crashes. Each of n1 and n2 holds the
    other's prepare and its own — with n0's pre-prepare, a quorum — so
    sequence 1 is proven, n1 re-proposes its batch in view 1 and numbers
    the next request 2. (A proof that left out its sender's own prepare
    proved nothing in a zone of four: n1 then assigned sequence 1 again,
    to another batch, over the one its zone had executed.)"""
    sim, net, keys, client, nodes = _committed_without("n3")
    proven = nodes[1].replica.slots[1].batch_digest
    done = run_ops(sim, client, [("deposit", 5)], until=1_000)
    assert [r.result for r in done] == [("ok", 15)]
    primary = nodes[1].replica
    assert (primary.view, primary.view_active) == (1, True)
    assert primary.slots[1].batch_digest == proven
    assert [env.payload.operation for env in primary.slots[2].batch] \
        == [("deposit", 5)]
    # n3 adopted the re-proposal (it cannot commit it in view 1: the
    # members that executed 1 take no part).
    assert nodes[3].replica.slots[1].batch_digest == proven
    # No sequence executes two batches anywhere.
    for sequence in (1, 2):
        assert len({node.replica.slots[sequence].batch_digest
                    for node in nodes[1:]
                    if node.replica.slots[sequence].executed}) == 1
    for node in nodes[1:3]:
        assert node.replica.last_executed == 2
        assert node.replica.app.balance_of("c1") == 15
    # ROADMAP D1(v): n3's request timer finds 1 below the committed 2 and
    # asks for the gap; n1 and n2 report that they executed 1, and n3
    # executes 1 and 2 in view 1 (it used to leave alone for view 2).
    sim.run(until=5_000)
    lagging = nodes[3].replica
    assert (lagging.view, lagging.view_active) == (1, True)
    assert lagging.last_executed == 2 and lagging.app.balance_of("c1") == 15
    assert lagging.slots[1].batch_digest == proven


def test_a_reference_a_backup_cannot_match_is_fetched_not_trusted():
    """n3 never saw the pre-prepare the NEW-VIEW's proofs name, so it
    asks the new primary n1, which bore every proof out before it sent
    the NEW-VIEW, for the originals before it adopts the NEW-VIEW — and
    while the answer does not come, it does not adopt it. Once the answer
    verifies, n3 holds the batch under view 1."""
    for answered in (False, True):
        sim, net, keys, client, nodes = _committed_without(
            "n3", request_timeout_ms=10_000.0,
            view_change_timeout_ms=10_000.0)
        undo = None if answered else _drop_to(net, "n3", "ProofReply")
        asked = []
        send_signed = nodes[3].send_signed

        def recording(dst, payload):
            if isinstance(payload, ProofFetch):
                asked.append(dst)
            send_signed(dst, payload)

        nodes[3].send_signed = recording
        for node in nodes[1:]:
            node.replica.view_changes.initiate(1)
        sim.run(until=sim.now + 200)
        lagging = nodes[3].replica
        assert net.stats.by_type["ProofFetch"] == 1
        assert asked == ["n1"]
        assert [(n.replica.view, n.replica.view_active)
                for n in nodes[1:]] == [(1, True), (1, True), (1, answered)]
        if answered:
            assert lagging.slots[1].batch == nodes[1].replica.slots[1].batch
            assert lagging.slots[1].pre_prepare.payload.view == 1
        else:
            assert lagging.slots[1].pre_prepare is None
            undo()


def _forging_new_view(node, keys, rewrite):
    """Make ``node`` send NEW-VIEWs whose re-proposals ``rewrite`` made;
    it adopts its honest ones itself."""
    multicast_signed = node.multicast_signed

    def forged(dsts, payload, include_self=False):
        if isinstance(payload, NewView):
            payload = dataclasses.replace(
                payload, pre_prepares=rewrite(payload.pre_prepares))
        multicast_signed(dsts, payload, include_self)

    node.multicast_signed = forged


@pytest.mark.parametrize("forgery", ["another batch", "a no-op", "left out"])
def test_backups_refuse_a_new_view_that_misstates_a_proven_sequence(forgery):
    """Sequence 1 is committed zone-wide when n0 crashes. n1, primary of
    view 1, sends a NEW-VIEW whose re-proposal at 1 names another digest,
    a no-op, or nothing: its backups recompute the re-proposals from the
    VIEW-CHANGEs it carries and refuse it."""
    sim, net, keys, group, nodes = build_group(
        request_timeout_ms=10_000.0, view_change_timeout_ms=10_000.0)
    client = make_client(sim, net, keys, group)
    assert run_ops(sim, client, [("open", 10)])[0].result == ("ok", 10)
    nodes[0].crash()
    forged_digest = {"another batch": digest(("forged",)),
                     "a no-op": digest(())}.get(forgery)

    def rewrite(pre_prepares):
        if forged_digest is None:
            return ()
        return (sign_message(keys, "n1", PrePrepare(
            view=1, sequence=1, batch_digest=forged_digest, batch=(),
            sender="n1")),)

    _forging_new_view(nodes[1], keys, rewrite)
    for node in nodes[1:]:
        node.replica.view_changes.initiate(1)
    sim.run(until=sim.now + 200)
    assert [(n.replica.view, n.replica.view_active) for n in nodes[1:]] \
        == [(1, True), (1, False), (1, False)]
    for node in nodes[2:]:
        assert node.replica.slots[1].pre_prepare.payload.view == 0


def test_a_replica_leading_again_while_lacking_the_same_batch_asks_again():
    """D13. n1 lacks batch 1 and leads view 1, but the answers to its
    fetches (to n2 and n3, whose proofs name it) are lost, so view 1
    never forms. When it leads again (view 5) still lacking it, it asks
    both again — what it asked in an earlier view change does not stand
    in for an answer in this one."""
    sim, net, keys, client, nodes = _committed_without(
        "n1", request_timeout_ms=10_000.0, view_change_timeout_ms=10_000.0)
    proven = nodes[2].replica.slots[1].batch_digest
    undo = _drop_to(net, "n1", "ProofReply")
    for node in nodes[1:]:
        node.replica.view_changes.initiate(1)
    sim.run(until=sim.now + 200)
    assert [(n.replica.view, n.replica.view_active) for n in nodes[1:]] \
        == [(1, False)] * 3
    undo()
    for node in nodes[1:]:
        node.replica.view_changes.initiate(5)
    sim.run(until=sim.now + 200)
    assert net.stats.by_type["ProofFetch"] == 4
    leader = nodes[1].replica
    assert [(n.replica.view, n.replica.view_active) for n in nodes[1:]] \
        == [(5, True)] * 3
    assert leader.slots[1].batch_digest == proven
    assert leader.slots[1].pre_prepare.payload.view == 5


def _naming(node, proof):
    """Make ``node``'s VIEW-CHANGEs name ``proof`` besides its own."""
    multicast_signed = node.multicast_signed

    def naming(dsts, payload, include_self=False):
        if isinstance(payload, ViewChange):
            payload = dataclasses.replace(
                payload,
                prepared_proofs=payload.prepared_proofs + (proof,))
        multicast_signed(dsts, payload, include_self)

    node.multicast_signed = naming


def test_a_view_change_naming_a_made_up_reference_is_left_out():
    """n3 names a prepared batch nobody has — two signers and a digest of
    nothing — and cannot answer the fetch for it. n1, primary of view 1,
    holds n2's and n3's VIEW-CHANGEs when n0 joins, and assembles
    NEW-VIEW from the three it bore out instead of waiting for n3: the
    zone moves to view 1 at once."""
    sim, net, keys, group, nodes = build_group(
        request_timeout_ms=10_000.0, view_change_timeout_ms=10_000.0)
    client = make_client(sim, net, keys, group)
    assert run_ops(sim, client, [("open", 10)])[0].result == ("ok", 10)
    _naming(nodes[3], PreparedProof(view=0, sequence=2,
                                    batch_digest=digest(("made up",)),
                                    signers=("n2", "n3")))
    for node in nodes[1:]:
        node.replica.view_changes.initiate(1)  # n0 joins on f+1 of them
    sim.run(until=sim.now + 200)
    assert net.stats.by_type["ProofFetch"] == 1
    assert [(n.replica.view, n.replica.view_active) for n in nodes] \
        == [(1, True)] * 4
    nv = nodes[1].replica.view_changes._new_view
    assert sorted(env.payload.sender for env in nv.view_changes) \
        == ["n0", "n1", "n2"]
    done = run_ops(sim, client, [("deposit", 5)], until=500)
    assert [r.result for r in done] == [("ok", 15)]


def test_the_new_primary_asks_every_member_naming_a_batch_it_lacks():
    """n1 lacks batch 1 in a zone of seven; n0 crashes. n4, the first
    whose proof n1 asks about, goes silent after its VIEW-CHANGE: n1 asks
    every other member that names the batch too, and view 1 forms on
    their answers."""
    sim, net, keys, client, nodes = _committed_without(
        "n1", n=7, f=2, request_timeout_ms=10_000.0,
        view_change_timeout_ms=10_000.0)
    nodes[4].send_signed = lambda dst, payload: None
    for node in nodes[1:]:
        node.replica.view_changes.initiate(1)
    sim.run(until=sim.now + 200)
    assert [(n.replica.view, n.replica.view_active) for n in nodes[1:]] \
        == [(1, True)] * 6
    assert (net.stats.by_type["ProofFetch"],
            net.stats.by_type["ProofReply"]) == (5, 4)
    assert nodes[1].replica.slots[1].batch_digest \
        == nodes[3].replica.slots[1].batch_digest


def test_an_equivocating_member_does_not_stall_the_view_change():
    """n6 forks its prepares and its proof replies for n0, n2 and n4;
    then n0 crashes, and n2, n4 and n6 ask for view 1 first. n2 and n4,
    which hold only n6's forked prepares, cannot match n6's own proof in
    the NEW-VIEW, so they fetch its originals from n1, the new primary —
    not from n6 — and the zone moves to view 1 at once and keeps
    serving."""
    sim, net, keys, group, nodes = build_group(
        n=7, f=2, request_timeout_ms=10_000.0,
        view_change_timeout_ms=10_000.0)
    client = make_client(sim, net, keys, group, f=2)
    nodes[6].set_behavior("equivocate")
    assert [r.result for r in run_ops(
        sim, client, [("open", 10), ("deposit", 1)], until=500)] \
        == [("ok", 10), ("ok", 11)]
    nodes[0].crash()
    for node in nodes[2::2]:
        node.replica.view_changes.initiate(1)  # the rest join on f+1
    sim.run(until=sim.now + 200)
    nv = nodes[1].replica.view_changes._new_view
    assert "n6" in {env.payload.sender for env in nv.view_changes}
    # Each of n2 and n4 asks n1 about each of the two batches.
    assert net.stats.by_type["ProofFetch"] == 4
    assert [(n.replica.view, n.replica.view_active) for n in nodes[1:6]] \
        == [(1, True)] * 5
    done = run_ops(sim, client, [("deposit", 5)], until=500)
    assert [r.result for r in done] == [("ok", 16)]
    for node in nodes[1:6]:
        assert node.replica.app.balance_of("c1") == 16


def test_a_member_gets_each_fetch_answered_once_per_view():
    """However often a member asks for the same originals, it gets them
    once in a view; a reference this replica does not hold is not
    answered at all."""
    sim, net, keys, group, nodes = build_group()
    client = make_client(sim, net, keys, group)
    assert run_ops(sim, client, [("open", 10)])[0].result == ("ok", 10)
    slot = nodes[1].replica.slots[1]
    for batch_digest in [slot.batch_digest] * 3 + [digest(("other",))]:
        nodes[3].send_signed("n1", ProofFetch(
            view=0, sequence=1, batch_digest=batch_digest, sender="n3"))
    sim.run(until=sim.now + 50)
    assert net.stats.by_type["ProofReply"] == 1


def test_a_faulty_members_gap_reply_and_an_old_view_commit_execute_nothing():
    """The primary n0 is faulty. In view 0 it sends batch d to n2 and n3
    only; n2 prepares d (n3's prepare reaches it), n3 does not (n2's is
    lost), and only n0 and n2 send COMMIT d. n1 leads view 1 from the
    VIEW-CHANGEs of n0, n1 and n3, which prove nothing, and the zone
    commits d' at 1 in view 1 while n1 misses the COMMITs. n0 then sends
    n1 a GAP-REPLY for d and forwards n2's COMMIT d from view 0, and
    sends the GAP-REPLY again once n1 asks for its gap: one member's
    report is not f+1, and a vote of a view n1 has left counts for
    nothing, so n1 never executes d. It executes d' once n2 and n3 report
    it. (It used to take d back to view 0, count its own commit there
    with n0's and n2's, and execute d where n3 had executed d'.)"""
    from repro.messages.pbft import Commit, GapReply
    sim, net, keys, group, nodes = build_group()
    nodes[0].crash()

    def request(client, amount):
        return sign_message(keys, client, ClientRequest(
            operation=("open", amount), timestamp=1, sender=client))

    def as_n0(payload, *to):
        envelope = sign_message(keys, "n0", payload)
        for node in to:
            node.deliver("n0", envelope)

    d_request = request("c1", 10)
    d = digest((d_request.payload,))
    d_pre_prepare = PrePrepare(view=0, sequence=1, batch_digest=d,
                               batch=(d_request,), sender="n0")
    undo = _drop_to(net, "n3", "Prepare")
    as_n0(d_pre_prepare, nodes[2], nodes[3])
    sim.run(until=20)
    undo()
    as_n0(Commit(view=0, sequence=1, batch_digest=d, sender="n0"), nodes[2])
    assert nodes[2].replica.slots[1].sent_commit
    assert not nodes[3].replica.slots[1].sent_commit
    assert not nodes[2].replica.slots[1].committed

    undo = _drop_to(net, "n1", "ViewChange")
    for node in (nodes[1], nodes[3]):
        node.replica.view_changes.initiate(1)
    vc = sign_message(keys, "n3", ViewChange(
        new_view=1, last_stable_sequence=0, prepared_proofs=(),
        sender="n3"))
    nodes[1].deliver("n3", vc)
    as_n0(ViewChange(new_view=1, last_stable_sequence=0, prepared_proofs=(),
                     sender="n0"), *nodes[1:])
    sim.run(until=sim.now + 20)
    undo()
    primary = nodes[1].replica
    assert (primary.view, primary.view_active) == (1, True)

    undo = _drop_to(net, "n1", "Commit")
    d2_request = request("c2", 20)
    primary.submit_request(d2_request)
    sim.run(until=sim.now + 20)
    d2 = digest((d2_request.payload,))
    for node in nodes[2:]:
        assert node.replica.last_executed == 1
        assert node.replica.slots[1].batch_digest == d2
    gap_reply = GapReply(pre_prepare=sign_message(keys, "n0", d_pre_prepare),
                         sender="n0")
    as_n0(gap_reply, nodes[1])
    nodes[1].deliver("n2", sign_message(keys, "n2", Commit(
        view=0, sequence=1, batch_digest=d, sender="n2")))
    sim.run(until=sim.now + 20)
    assert primary.slots[1].batch_digest == d2
    assert not primary.slots[1].committed and primary.last_executed == 0
    undo()
    multicast = net.multicast

    def answer_first(src, dsts, message):
        multicast(src, dsts, message)
        if src == "n1" and type(message.payload).__name__ \
                == "CheckpointFetch":
            as_n0(gap_reply, nodes[1])

    net.multicast = answer_first
    primary.submit_request(request("c3", 30))
    sim.run(until=sim.now + 1_000)
    assert net.stats.by_type["CheckpointFetch"] == 3
    assert (primary.view, primary.view_active) == (1, True)
    assert primary.last_executed == 2
    assert primary.slots[1].batch_digest == d2
    assert (primary.app.balance_of("c1"), primary.app.balance_of("c2")) \
        == (0, 20)
