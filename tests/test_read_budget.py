"""Message budget of the certified read path.

One certified read and one epoch of watermark certification are protocol
units whose cost in messages is a pure function of the code (DESIGN.md
§14.2 / §14.3), so it is pinned here, beside
:func:`repro.analysis.complexity.read_messages`: a read asks one member —
the one that completed the client's last read in the zone — and needs
its one proven answer, asks the rest once when that answer is unusable,
moves on to the next member after a timeout, falls back once everyone
has answered uselessly, and a zone certifies its state once per epoch
however many batches it executes, computing a state root only for what
it offers or serves. Run as a script it prints what CI shows in the job
summary.
"""

import statistics
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.analysis.complexity import read_messages
from repro.core.deployment import ZiziphusConfig, build_ziziphus
from repro.core.migration_protocol import MigrationConfig
from repro.core.sync_protocol import SyncConfig
from repro.messages.base import sign_message
from repro.messages.reads import ReadReply
from repro.obs.bus import Instrumentation
from repro.pbft.faults import make_behavior
from repro.pbft.replica import PBFTConfig
from repro.reads import ReadConfig, ReadEngine
from repro.storage import merkle
from repro.storage.merkle import StateTree
from repro.workload.driver import ClosedLoopDriver
from repro.workload.generator import WorkloadMix

READS = ReadConfig(enabled=True)
#: ``WatermarkShare`` multicasts per zone per epoch under the load below:
#: the replicas that execute a batch of a new epoch before ``f+1`` shares
#: of it have reached them (4.6 measured; 7.0 when a read asked ``f+1``
#: members and batches were smaller). One per replica per executed batch
#: — 137 under this load — before certification went per epoch.
SHARES_PER_ZONE_EPOCH_CEILING = 12
#: State roots computed per zone per epoch under that load: one for each
#: share offered, and one for each certificate served over a version the
#: replica had not offered (5.1 measured; 7.6 when a read asked ``f+1``
#: members). Re-rooting every executed batch would be one per replica per
#: batch — 137.
ROOTS_PER_ZONE_EPOCH_CEILING = 12
#: Mean bytes of the proof in a served ``ReadReply`` under that load: a
#: count byte, the side bits and 32 bytes per level, in trees of about 40
#: accounts (180 measured: 5.5 levels).
PROOF_BYTES_CEILING = 224
#: Simulated ms of the loaded run (the benchmark's): four whole epochs.
LOADED_MS = 4 * READS.epoch_ms
#: Fast reads z0 completed in [100, 400) ms of the loaded run with z0n1
#: silent, when a read asked ``f+1`` members and waited out the timer
#: whenever the silent one was among them (34 timeouts; 10 now, one for
#: each client that first asks z0n1).
SILENT_MEMBER_FAST_READS_BEFORE = 3_714


def loaded_zones(seed=7, behaviors=None):
    """The benchmark's ``read-heavy`` load, started and not yet run:
    three zones of four, 40 clients each, 90 % reads, batching on,
    failure timers out of reach. Returns the deployment and its driver."""
    config = ZiziphusConfig(
        num_zones=3, f=1, seed=seed, use_threshold_signatures=True,
        read=READS, behaviors=behaviors or {},
        pbft=PBFTConfig(batch_size=16, batch_timeout_ms=1.0,
                        request_timeout_ms=8_000.0,
                        view_change_timeout_ms=8_000.0,
                        checkpoint_period=512, water_mark_window=4096),
        sync=SyncConfig(stable_leader=True, checkpoint_on_migration=False,
                        global_batch_size=24, global_batch_timeout_ms=10.0,
                        commit_timeout_ms=8_000.0, phase_timeout_ms=8_000.0,
                        watch_timeout_ms=8_000.0),
        migration=MigrationConfig(state_timeout_ms=8_000.0,
                                  watch_timeout_ms=8_000.0))
    deployment = build_ziziphus(config)
    driver = ClosedLoopDriver(
        deployment, WorkloadMix(global_fraction=0.0, read_fraction=0.9),
        clients_per_zone=40, seed=seed)
    driver.start()
    return deployment, driver


def sent(deployment, kind):
    """Messages of payload type ``kind`` handed to the network so far."""
    return deployment.network.stats.by_type[kind]


def share_multicasts(deployment):
    """``WatermarkShare`` fan-outs so far (one reaches every peer)."""
    peers = len(deployment.directory.zone("z0").members) - 1
    return sent(deployment, "WatermarkShare") / peers


@contextmanager
def measuring():
    """Count, while inside, the state roots computed afresh and the proof
    bytes of every served reply: ``(roots, proof_lengths)``."""
    roots, proofs = [], []
    root, answer = StateTree.root, ReadEngine._answer

    def fresh_root(tree):
        top = tree._top
        if top is not None and top.hash is None:
            roots.append(tree)
        return root.fget(tree)

    def measured_answer(engine, request):
        reply = answer(engine, request)
        if reply is not None and reply.status == "ok":
            proofs.append(len(reply.proof))
        return reply

    StateTree.root = property(fresh_root)
    ReadEngine._answer = measured_answer
    try:
        yield roots, proofs
    finally:
        StateTree.root = root
        ReadEngine._answer = answer


@contextmanager
def client_hashes(client):
    """Count, while inside, the SHA-256s ``client`` computes to judge
    each proof it is sent: one count per proof judged."""
    counts = []
    sha256, binds = merkle._sha256, client._binds

    def counted(data):
        counts[-1] += 1
        return sha256(data)

    def measured_binds(*args):
        counts.append(0)
        merkle._sha256 = counted
        try:
            return binds(*args)
        finally:
            merkle._sha256 = sha256

    client._binds = measured_binds
    try:
        yield counts
    finally:
        del client._binds


def small_zones(backend="default"):
    """Three zones at ``f = 1`` on the default timers, reads on."""
    return build_ziziphus(ZiziphusConfig(num_zones=3, f=1, read=READS,
                                         backend=backend))


def certified_zone(backend="default"):
    """A three-zone deployment whose z0 holds a watermark certificate,
    and a z0 client that has completed the write which produced it."""
    deployment = small_zones(backend)
    client = deployment.add_client("c1", "z0")
    client.on_complete = lambda record: None
    client.submit_local(("deposit", 5))
    deployment.sim.run(until=20.0)
    assert len(client.completed) == 1
    assert all(node.reads.cert is not None
               for node in deployment.zone_nodes("z0"))
    return deployment, client


def one_read(deployment, client, run_ms=None):
    """Submit one read and run; returns ``(ReadRequest, ReadReply)``
    messages it cost, the flight's timer and the completion record."""
    before = sent(deployment, "ReadRequest"), sent(deployment, "ReadReply")
    done = len(client.completed)
    client.submit_read(("balance",))
    timer = client._outstanding.timer
    deployment.sim.run(until=deployment.sim.now + (
        READS.read_timeout_ms / 2 if run_ms is None else run_ms))
    record = client.completed[done] if len(client.completed) > done else None
    return ((sent(deployment, "ReadRequest") - before[0],
             sent(deployment, "ReadReply") - before[1]), timer, record)


def next_asked(deployment, client):
    """Whom the client's next read is sent to first."""
    return client._read_asked(deployment.directory.zone(client.current_zone))


class ReadTimeouts(Instrumentation):
    """A bus that keeps only the read timeouts, per client."""

    def __init__(self):
        super().__init__()
        self.per_client = Counter()

    def emit(self, ts, kind, node="", **fields):
        if kind == "read.fallback" and fields["reason"] == "timeout":
            self.per_client[node] += 1


def silent_member_run():
    """The loaded run with z0n1 silent for 400 ms: the read timeouts per
    client, and the fast reads z0 completes in [100, 400) ms."""
    deployment, _ = loaded_zones(behaviors={"z0n1": make_behavior("silent")})
    timeouts = ReadTimeouts().attach(deployment)
    deployment.sim.run(until=400.0)
    fast = sum(1 for client in deployment.clients.values()
               if client.current_zone == "z0"
               for record in client.completed
               if record.labels == {"read": "fast"}
               and 100.0 <= record.completed_at < 400.0)
    return timeouts.per_client, fast


def other_members(deployment, member):
    """The members of ``member``'s zone but it, in zone order."""
    zone = deployment.directory.zone(deployment.directory.zone_of(member))
    return [m for m in zone.members if m != member]


# ----------------------------------------------------------------------
# One read
# ----------------------------------------------------------------------
def test_an_honest_read_asks_one_hears_one_and_fires_no_timer():
    deployment, client = certified_zone()
    messages, timer, record = one_read(deployment, client)
    assert messages == (1, 1) == read_messages(4)[0]
    assert record.result == ("ok", 10_005)
    assert record.labels == {"read": "fast"}
    assert timer.cancelled          # retired by the completion, not fired


def test_a_read_the_asked_member_cannot_serve_asks_the_others_instead_of_waiting():
    """The asked member lies (within ``f``), and a correct member holds
    the record as migrating. The other three members are asked at once,
    and the first proof settles it."""
    deployment, client = certified_zone()
    liar = next_asked(deployment, client)
    migrating = other_members(deployment, liar)[0]
    deployment.nodes[liar].set_behavior("fabricate-read")
    deployment.nodes[migrating].locks.mark_stale("c1")
    messages, timer, record = one_read(deployment, client)
    assert messages == (4, 4) == read_messages(4)[1]
    assert record.result == ("ok", 10_005)
    assert record.labels == {"read": "fast"}
    assert record.latency_ms < READS.read_timeout_ms / 10
    assert timer.cancelled


def test_a_syncbft_zone_asks_one_of_its_three():
    deployment, client = certified_zone(backend="syncbft")
    assert len(deployment.directory.zone("z0").members) == 3
    messages, timer, record = one_read(deployment, client)
    assert messages == (1, 1) == read_messages(3)[0]
    assert record.labels == {"read": "fast"}
    # The asked member cannot serve: the other two are asked, and when
    # neither can either — one holds the record as migrating, the other
    # is a second liar, over the budget — everyone has answered, and
    # the read leaves the fast path at once. (The migrating member is
    # z0n0, the primary, which by its lock bit orders no local request
    # of the record either, so the fallback itself waits for
    # retransmission.)
    liar = next_asked(deployment, client)
    migrating, third = other_members(deployment, liar)
    deployment.nodes[liar].set_behavior("fabricate-read")
    deployment.nodes[migrating].locks.mark_stale("c1")
    deployment.nodes[third].set_behavior("fabricate-read")
    obs = Instrumentation(recording=True).attach(deployment)
    submitted = deployment.sim.now
    messages, timer, record = one_read(deployment, client)
    assert messages == (3, 3) == read_messages(3)[1]
    fallback, = [e for e in obs.events if e.kind == "read.fallback"]
    assert fallback.fields["reason"] == "unusable"
    assert fallback.ts - submitted < READS.read_timeout_ms / 10
    assert client._outstanding.labels == {"read": "fallback"}


def test_a_read_every_member_answered_uselessly_falls_back_at_once():
    """An idle zone's certificate ages out: every member answers with a
    genuine certificate over the bound. Once the last of them is heard
    nobody is left to ask, and the read takes the transactional path
    then — not when ``read_timeout_ms`` (120 ms) runs out."""
    deployment, client = certified_zone()
    obs = Instrumentation(recording=True).attach(deployment)
    deployment.sim.run(until=deployment.sim.now
                       + READS.staleness_bound_ms + READS.epoch_ms)
    submitted = deployment.sim.now
    messages, timer, record = one_read(deployment, client)
    assert messages == (4, 4)
    reads = [(e.kind, e.fields.get("reason")) for e in obs.events
             if e.node == "c1" and e.kind.startswith("read.")]
    assert reads == [("read.stale", None)] * 4 \
        + [("read.fallback", "unusable")]
    assert record.labels == {"read": "fallback"}
    assert record.result == ("ok", 10_005)
    fallback = [e for e in obs.events if e.kind == "read.fallback"][0]
    assert fallback.ts - submitted < READS.read_timeout_ms / 10


def fast_read_hashes(reads=3):
    """The SHA-256s a client computes for each of ``reads`` fast reads
    under one certificate, and the depth of the proof they carry: the
    reader is one of eight z0 clients that have each written once."""
    deployment = small_zones()
    writers = [deployment.add_client(f"c{k}", "z0") for k in range(1, 9)]
    for writer in writers:
        writer.on_complete = lambda record: None
        writer.submit_local(("deposit", 5))
    deployment.sim.run(until=20.0)
    client = writers[0]
    with client_hashes(client) as counts:
        for _ in range(reads):
            _, _, record = one_read(deployment, client)
            assert record.labels == {"read": "fast"}
    return counts, client._proved[1][0]


def test_a_client_folds_its_proof_once_per_certificate():
    """The first fast read under a certificate hashes the leaf and each
    level of the proof; a read that repeats the path hashes the leaf."""
    counts, depth = fast_read_hashes()
    assert depth >= 2
    assert counts == [depth + 1, 1, 1]


def test_a_client_asks_one_member_and_a_zones_clients_spread_over_all():
    """A client keeps asking the member that served it; the members its
    id picks for a first read spread a zone's clients evenly."""
    deployment, client = certified_zone()
    members = deployment.directory.zone("z0").members
    asked = next_asked(deployment, client)
    for _ in members:
        messages, _, record = one_read(deployment, client)
        assert messages == (1, 1) and record.labels == {"read": "fast"}
        assert next_asked(deployment, client) == asked
    assert [deployment.nodes[m].reads.reads_served for m in members] \
        == [len(members) if m == asked else 0 for m in members]
    loaded, _ = loaded_zones()
    zone = loaded.directory.zone("z0")
    first = Counter(client._read_asked(zone)
                    for client in loaded.clients.values()
                    if client.current_zone == "z0")
    assert first == {member: 10 for member in zone.members}


def test_a_timeout_moves_the_client_to_the_next_member():
    deployment, client = certified_zone()
    members = deployment.directory.zone("z0").members
    silent = next_asked(deployment, client)
    deployment.nodes[silent].set_behavior("silent")
    messages, timer, record = one_read(deployment, client,
                                       run_ms=2 * READS.read_timeout_ms)
    assert messages == (1, 0)
    assert record.labels == {"read": "fallback"}
    following = members[(members.index(silent) + 1) % len(members)]
    assert next_asked(deployment, client) == following
    messages, timer, record = one_read(deployment, client)
    assert messages == (1, 1) and record.labels == {"read": "fast"}


def test_a_silent_asked_member_costs_each_of_its_clients_one_timeout():
    """z0n1 answers nothing. Each client that first asks it waits out
    ``read_timeout_ms`` once and then asks the next member; when a read
    asked ``f+1`` members, every read that asked z0n1 beside a member
    that could not serve waited it out."""
    timeouts, fast = silent_member_run()
    assert max(timeouts.values()) == 1
    assert fast > SILENT_MEMBER_FAST_READS_BEFORE


def test_a_replayed_reply_is_one_answer():
    """A member that answers three times has answered once: the asked
    member's replays neither widen the read a second time nor add up to
    ``f+1`` refusals (no fallback). A second member's refusal does."""
    deployment, client = certified_zone()
    asked = next_asked(deployment, client)
    other = other_members(deployment, asked)[0]
    for member in deployment.directory.zone("z0").members:
        deployment.nodes[member].set_behavior("silent")
    obs = Instrumentation(recording=True).attach(deployment)
    client.submit_read(("balance",))

    def refuse(member):
        reply = ReadReply(timestamp=client.timestamp, client_id="c1",
                          status="behind", result=None, cert=None,
                          sender=member)
        deployment.network.send(member, "c1", sign_message(
            deployment.keys, member, reply))
        deployment.sim.run(until=deployment.sim.now + 5.0)

    for _ in range(3):
        refuse(asked)
    assert sent(deployment, "ReadRequest") == read_messages(4)[1][0]
    assert client._outstanding.votes == {"refused": {asked: "behind"}}
    refuse(other)
    assert [(e.kind, e.fields["reason"]) for e in obs.events
            if e.node == "c1" and e.kind.startswith("read.")] \
        == [("read.fallback", "behind")]
    assert sent(deployment, "ReadRequest") == read_messages(4)[1][0]


# ----------------------------------------------------------------------
# One epoch
# ----------------------------------------------------------------------
def test_a_loaded_zone_certifies_once_per_epoch_and_everyone_holds_it():
    with measuring() as (roots, proofs):
        deployment, driver = loaded_zones()
        epochs = int(LOADED_MS / READS.epoch_ms)
        for k in range(epochs):
            deployment.sim.run(until=READS.epoch_ms * (k + 1) - 0.001)
            held = {node.node_id: (node.reads.cert.watermark_ts,
                                   node.reads.served[0].watermark_ts)
                    for node in deployment.nodes.values()}
            assert set(held.values()) == {(READS.epoch_ms * k,) * 2}, held
    zone_epochs = len(deployment.zone_ids) * epochs
    assert 1 <= share_multicasts(deployment) / zone_epochs \
        <= SHARES_PER_ZONE_EPOCH_CEILING
    assert 1 <= len(roots) / zone_epochs <= ROOTS_PER_ZONE_EPOCH_CEILING
    assert statistics.mean(proofs) <= PROOF_BYTES_CEILING
    assert len(driver.records) > 4_000


def test_below_one_batch_per_epoch_every_batch_is_offered_by_everyone():
    """A zone that executes less than one batch per epoch shares exactly
    as it did when every batch was offered: once per replica per batch."""
    deployment = small_zones()
    client = deployment.add_client("c1", "z0")
    client.on_complete = lambda record: None
    batches = 5
    for k in range(batches):
        deployment.sim.at(10.0 + k * (READS.epoch_ms + 10.0),
                          client.submit_local, ("deposit", 1))
    deployment.sim.run(until=batches * (READS.epoch_ms + 10.0))
    assert len(client.completed) == batches
    members = len(deployment.directory.zone("z0").members)
    assert share_multicasts(deployment) == batches * members


# ----------------------------------------------------------------------
# The epoch edge
# ----------------------------------------------------------------------
@pytest.mark.parametrize("late,shares", [
    # One member executes on the far side: its share stands alone, and
    # the next batch is offered by all four — nobody holds the epoch yet.
    (1, 1 + 4),
    # f+1 on the far side certify among themselves, and the two on the
    # near side hold the certificate as soon as they hear both: the
    # next batch finds the epoch certified everywhere.
    (2, 2),
    (3, 3),
])
def test_a_batch_split_over_an_epoch_edge_still_certifies_the_epoch(
        late, shares):
    deployment = small_zones()
    nodes = deployment.zone_nodes("z0")
    edge = READS.epoch_ms
    sim = deployment.sim
    for node in nodes:
        sim.at(10.0, node.reads.on_executed, 1)
        sim.at(edge + (0.1 if node in nodes[-late:] else -0.1),
               node.reads.on_executed, 2)
        sim.at(edge + 2.0, node.reads.on_executed, 3)
    sim.run(until=edge - 0.2)
    assert [(n.reads.cert.sequence, n.reads.cert.watermark_ts)
            for n in nodes] == [(1, 0.0)] * 4
    assert share_multicasts(deployment) == 4
    sim.run(until=edge + 5.0)
    held = {(n.reads.cert.sequence, n.reads.cert.watermark_ts)
            for n in nodes}
    assert held == {(2 if late > 1 else 3, edge)}
    assert share_multicasts(deployment) == 4 + shares


if __name__ == "__main__":
    # What CI prints: the measured counts beside what is pinned.
    deployment, client = certified_zone()
    honest, _, _ = one_read(deployment, client)
    liar = next_asked(deployment, client)
    deployment.nodes[liar].set_behavior("fabricate-read")
    deployment.nodes[other_members(deployment, liar)[0]].locks.mark_stale(
        "c1")
    widened, _, _ = one_read(deployment, client)
    (first, *repeats), depth = fast_read_hashes()
    timeouts, fast = silent_member_run()
    with measuring() as (roots, proofs):
        deployment, driver = loaded_zones()
        deployment.sim.run(until=LOADED_MS)
    zone_epochs = len(deployment.zone_ids) * LOADED_MS / READS.epoch_ms
    (one_sent, one_heard), (widened_sent, widened_heard) = read_messages(4)
    print(f"one read {honest[0]} + {honest[1]} messages (pinned "
          f"{one_sent} + {one_heard}), one the asked member cannot serve "
          f"{widened[0]} + {widened[1]} (pinned {widened_sent} + "
          f"{widened_heard}); client SHA-256s per fast read {first} first "
          f"under a certificate (pinned depth + 1 = {depth + 1}), "
          f"{max(repeats)} on a repeat (pinned 1); z0n1 silent: at most "
          f"{max(timeouts.values())} read timeout per client "
          f"({sum(timeouts.values())} in all), {fast} fast reads in z0 in "
          f"[100, 400) ms ({SILENT_MEMBER_FAST_READS_BEFORE} at f+1 "
          f"asked); "
          f"{share_multicasts(deployment) / zone_epochs:.1f} share "
          f"multicasts per zone per epoch (ceiling "
          f"{SHARES_PER_ZONE_EPOCH_CEILING}), "
          f"{len(roots) / zone_epochs:.1f} state roots computed per zone "
          f"per epoch (ceiling {ROOTS_PER_ZONE_EPOCH_CEILING}), "
          f"{statistics.mean(proofs):.0f} proof bytes per served reply "
          f"(ceiling {PROOF_BYTES_CEILING}), "
          f"{deployment.network.stats.sent / len(driver.records):.2f} "
          f"messages per completed operation")
