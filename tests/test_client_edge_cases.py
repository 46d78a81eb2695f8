"""Edge-case tests for the mobile client and reply handling."""

import re
from pathlib import Path

from repro.crypto.digest import digest
from repro.messages.base import Signed, sign_message
from repro.messages.client import ClientReply, MigrationRequest
from repro.obs.bus import Instrumentation
from repro.sim.process import Process
from tests.conftest import drive_to_completion


def reply_env(dep, sender, timestamp, result, client_id="c1"):
    reply = ClientReply(view=0, timestamp=timestamp, client_id=client_id,
                        result=result, sender=sender)
    return Signed(reply, dep.keys.sign(sender, digest(reply)))


def test_replies_from_unknown_senders_ignored(ziziphus3):
    dep = ziziphus3
    client = dep.add_client("c1", "z0")
    dep.sim.schedule(0.0, client.submit_local, ("deposit", 1))
    dep.run(10)   # request in flight
    # An outsider process that isn't a member of any zone.
    dep.network.register(Process(dep.sim, "outsider"),
                         dep.directory.zone("z0").region)
    dep.network.send("outsider", "c1",
                     reply_env(dep, "outsider", 1, ("ok", 999_999)))
    dep.run(dep.sim.now + 30_000)
    # The outsider's reply never counted toward the f+1 quorum.
    assert client.completed[0].result == ("ok", 10_001)


def test_single_forged_reply_cannot_complete_a_request(ziziphus3):
    dep = ziziphus3
    client = dep.add_client("c1", "z2")
    dep.nodes["z2n0"].crash()   # slow path; gives the forger a window
    dep.sim.schedule(0.0, client.submit_local, ("balance",))
    dep.run(50.0)
    assert client._outstanding is not None
    # One (Byzantine) node replies with a lie; f+1 = 2 matching needed.
    dep.network.send("z2n1", "c1",
                     reply_env(dep, "z2n1", 1, ("ok", 0)))
    dep.run(dep.sim.now + 20.0)
    assert client._outstanding is not None, \
        "one reply must not complete the request"
    dep.run(dep.sim.now + 60_000)
    assert client.completed and client.completed[0].result == ("ok", 10_000)


def test_stale_timestamp_replies_ignored(ziziphus3):
    dep = ziziphus3
    client = dep.add_client("c1", "z0")
    records = drive_to_completion(dep, client, [("local", ("deposit", 1))])
    assert records
    # Late replies for an old timestamp arrive after completion: no crash,
    # no double-complete.
    for node in ("z0n0", "z0n1"):
        dep.network.send(node, "c1", reply_env(dep, node, 1, ("ok", 1)))
    dep.run(dep.sim.now + 5_000)
    assert len(client.completed) == 1


def test_mismatched_result_replies_do_not_mix(ziziphus3):
    dep = ziziphus3
    client = dep.add_client("c1", "z1")
    dep.nodes["z1n0"].crash()
    dep.sim.schedule(0.0, client.submit_local, ("deposit", 5))
    dep.run(50.0)
    # Two different forged results from two nodes: they must not combine
    # into a quorum.
    dep.network.send("z1n1", "c1", reply_env(dep, "z1n1", 1, ("ok", 111)))
    dep.network.send("z1n2", "c1", reply_env(dep, "z1n2", 1, ("ok", 222)))
    dep.run(dep.sim.now + 20.0)
    assert client._outstanding is not None
    dep.run(dep.sim.now + 90_000)
    assert client.completed[0].result == ("ok", 10_005)


def test_initiator_zone_cannot_vouch_for_a_migration_not_yet_applied(ziziphus3):
    """A retransmission between global commit and the destination's
    append is answered by the honest initiator primary; with one forged
    reply from a Byzantine initiator-zone backup that must not add up to
    ``f+1`` x "migrated" before any destination node holds R(c)."""
    dep = ziziphus3
    alice = dep.add_client("alice", "z1", retransmit_ms=12.0)
    applied_when_done = []
    follow_up = []

    def on_complete(record):
        if not applied_when_done:
            applied_when_done.append(
                [node.migration.migrations_applied
                 for node in dep.zone_nodes("z2")])
            alice.submit_local(("deposit", 1))
        else:
            follow_up.append(record.result)

    alice.on_complete = on_complete
    dep.sim.schedule(0.0, alice.submit_migration, "z2")
    # z0 (the stable-leader zone) initiates; z0n1 is its Byzantine backup.
    dep.sim.schedule(60.0, dep.network.send, "z0n1", "alice",
                     reply_env(dep, "z0n1", 1, ("migrated", "ok", "z2"),
                               client_id="alice"))
    dep.run(5_000)
    assert alice.completed[0].result == ("migrated", "ok", "z2")
    assert applied_when_done == [[1, 1, 1, 1]]
    assert follow_up and follow_up[0][0] == "ok"


def test_replayed_sub1_committed_cannot_silence_retransmission(ziziphus3):
    """A faulty initiator primary that drops the request and replays
    ``sub1-committed`` twice per ``retransmit_ms`` must not keep the
    client from multicasting to the backups (who then depose it)."""
    dep = ziziphus3
    obs = Instrumentation(recording=True).attach(dep)
    alice = dep.add_client("alice", "z1", retransmit_ms=100.0)
    dep.nodes["z0n0"].register_handler(MigrationRequest,
                                       lambda *dropped: None)
    lie = reply_env(dep, "z0n0", 1,
                    ("sub1-committed", "migrated", "ok", "z2"),
                    client_id="alice")
    for k in range(100):
        dep.sim.schedule(k * 50.0, dep.network.send, "z0n0", "alice", lie)
    dep.sim.schedule(0.0, alice.submit_migration, "z2")
    dep.run(5_000)
    retransmitted = [e for e in obs.events
                     if e.kind == "net.send" and e.node == "alice"
                     and e.fields["dst"] == "z0n1"]
    assert retransmitted, "the client never multicast to the backups"
    assert alice.completed and \
        alice.completed[0].result == ("migrated", "ok", "z2")


def test_client_loop_site_census():
    """ROADMAP tracks how often "a request is finished" is written; it
    may not grow silently. One site builds a ``CompletedRequest``, one
    calls ``on_complete``, and the driver asks no client or deployment
    what it is (the expressions CI's ``lint`` job prints)."""
    root = Path(__file__).resolve().parents[1] / "src" / "repro"
    source = "".join(path.read_text() for path in sorted(root.rglob("*.py")))
    assert len(re.findall(r"CompletedRequest\(", source)) == 1
    assert len(re.findall(r"self\.on_complete\(", source)) == 1
    driver = (root / "workload" / "driver.py").read_text()
    assert not re.findall(r"isinstance\(client|hasattr\(client|"
                          r"getattr\((self\.)?deployment", driver)
    assert "PBFTClient" not in driver


def test_one_replica_claiming_a_far_view_does_not_misdirect_first_sends(
        ziziphus3):
    """ROADMAP D5: the view a request first assumes is one ``f+1`` members
    of the zone reported. One faulty member replying in view 10**6 + 1
    (whose primary would be z0n1) moves nothing; a second member in a
    higher view than 0 moves it to the lower of the two."""
    dep = ziziphus3
    client = dep.add_client("c1", "z0")
    sent = []
    multicast = dep.network.multicast

    def tap(src, dsts, message):
        dsts = tuple(dsts)
        if src == "c1":
            sent.append(dsts)
        multicast(src, dsts, message)

    dep.network.multicast = tap
    assert drive_to_completion(dep, client, [("local", ("deposit", 1))])
    first = len(sent)

    def claim(sender, view):
        reply = ClientReply(view=view, timestamp=1, client_id="c1",
                            result=("ok", 10_001), sender=sender)
        dep.network.send(sender, "c1", sign_message(dep.keys, sender, reply))
        dep.run(dep.sim.now + 100.0)

    claim("z0n3", 10**6 + 1)
    assert client.view_hints.get("z0", 0) == 0
    assert drive_to_completion(dep, client, [("local", ("deposit", 1))])
    assert sent[first] == ("z0n0",)
    claim("z0n2", 5)
    assert client.view_hints["z0"] == 5
    second = len(sent)
    drive_to_completion(dep, client, [("local", ("deposit", 1))], max_steps=1)
    assert sent[second] == ("z0n1",)
