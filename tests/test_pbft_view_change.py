"""PBFT view-change tests: liveness under primary failure."""

from repro.crypto.digest import digest
from repro.messages.base import sign_message
from repro.messages.client import ClientRequest
from repro.messages.pbft import CheckpointFetch, NewView, PrePrepare, ViewChange
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
    request timer asks the zone for the gap, and each member sends again
    what it sent for 2-4 in this view: n1 executes them, in view 0, before
    it would have suspected anyone. Asking again gets nothing more."""
    sim, net, keys, group, nodes = build_group(checkpoint_period=100)
    client = make_client(sim, net, keys, group)
    run_ops(sim, client, [("open", 10)])
    net.set_partition([("n0", "n2", "n3", "c1"), ("n1",)])
    run_ops(sim, client, [("deposit", 1)] * 2)
    net.set_partition(None)
    resent = []
    multicast = net.multicast

    def tap(src, dsts, message):
        dsts = tuple(dsts)
        if dsts == ("n1",) and src != "c1":
            resent.append(type(message.payload).__name__)
        multicast(src, dsts, message)

    net.multicast = tap
    done = run_ops(sim, client, [("deposit", 1)], until=200)
    assert done[0].result == ("ok", 13)
    lagging = nodes[1].replica
    assert (lagging.view, lagging.view_active) == (0, True)
    assert lagging.last_executed == 4 and lagging.app.balance_of("c1") == 13
    # n0 the primary: 3 pre-prepares and 3 commits; n2, n3 a pre-prepare
    # (n0's, forwarded), a prepare and a commit for each of the three.
    assert len(resent) == 24
    ask = CheckpointFetch(sequence=2, sender="n1")
    for _ in range(3):
        for member in ("n0", "n2", "n3"):
            net.send("n1", member, sign_message(keys, "n1", ask))
        sim.run(until=sim.now + 50)
    assert len(resent) == 24


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
    return digest(request)


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
    request_digest = _pending_at(nodes, keys)
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
    assert request_digest in watcher.pending
    assert watcher.request_timers[request_digest][0] == 1
    sim.run(until=400.0)
    assert [armed_in for _, armed_in in suspected] == [1]
    assert 200.0 < suspected[0][0] < 210.0


# ----------------------------------------------------------------------
# Prepared proofs carry pre-prepares by digest
# ----------------------------------------------------------------------
def test_a_new_primary_missing_a_proven_batch_fetches_and_reproposes_it():
    """n1 never receives n0's pre-prepare for sequence 1, which the other
    six prepare and execute. n0 crashes, and n1 leads view 1: the proofs
    name batch 1 by digest only, so n1 asks the zone for it, holds its
    NEW-VIEW until a reply hashes to that digest, and re-proposes it (a
    proven sequence is never filled with a no-op). (The members that
    executed it take no part in the re-proposal, so n1 itself still lags:
    ROADMAP D1(v).)"""
    sim, net, keys, group, nodes = build_group(n=7, f=2)
    client = make_client(sim, net, keys, group, f=2)
    multicast = net.multicast

    def lose_pre_prepares_to_n1(src, dsts, message):
        if src == "n0" and isinstance(message.payload, PrePrepare):
            dsts = tuple(d for d in dsts if d != "n1")
        multicast(src, dsts, message)

    net.multicast = lose_pre_prepares_to_n1
    assert run_ops(sim, client, [("open", 10)], until=100)[0].result \
        == ("ok", 10)
    net.multicast = multicast
    nodes[0].crash()
    proven = nodes[2].replica.slots[1]
    fresh = nodes[1].replica
    assert fresh.slots[1].pre_prepare is None
    done = run_ops(sim, client, [("deposit", 5)], until=700)
    assert [r.result for r in done] == [("ok", 15)]
    assert net.stats.by_type["BatchFetch"] == 6
    reproposed = fresh.slots[1]
    assert reproposed.pre_prepare.payload.view == 1
    assert reproposed.batch_digest == proven.batch_digest
    assert reproposed.batch == proven.batch
    for node in nodes[2:]:
        replica = node.replica
        assert (replica.view, replica.view_active) == (1, True)
        assert replica.last_executed == 2
        assert replica.app.balance_of("c1") == 15
