"""Byte-identity of the certified phases, as a tier-1 test.

Each scenario is a small seeded closed-loop run with a recording bus
attached; the pinned value is the SHA-256 of its exported JSONL trace —
every event of every kind with every field in emission order, every
closed span, and the summary counters (only the ``meta`` header, whose
counts the rest implies, is left out). Together the scenarios execute
every certified phase of Algorithms 1-2 and §IV.B.3 / §VI, including the
ones no bench, chaos campaign or ``repro trace`` contract runs:
propose/promise (``stable_leader=False``), the prepare round in every
endorsement, cross-cluster CROSS-PROPOSE / PREPARED / CROSS-COMMIT, the
cross-zone 2PC with its accept-timeout re-send, and the three re-drive
paths a zone-primary crash or a lost ACCEPTED takes.

The literals were generated at the commit *before* the certified-step
refactor (``python tests/test_protocol_transcript.py`` prints them); a
refactor of ``core/`` must leave them unchanged. The cross-zone runs
leave two things out of the hash, the refactor's intended changes: the
``cert.check`` events the cross-zone receipt checks now emit, and the
``endorse.led`` counter, which now counts the XZ-PROPOSE re-send as it
counts every other re-lead of a banked endorsement.

The client side is pinned the same way, its literals generated at the
commit before the client loops were merged into one: certified reads
(one asked member, widening, rejection fallback), reads against a
stale and a silent replica (``read.stale``, the read timeout, the
fallback, the clients' ``txn.*`` events), retransmission to a zone whose
primary is dead (the multicast, the view hint), and one recorded
``run_point`` per baseline protocol of the evaluation.

The 39 literals of the scenarios that migrate, and the Steward
baseline's, were generated again when Algorithm 2 began to run once per
(ballot, source, destination) group and a zone split across views after
an initiator crash began to come back together (EXPERIMENTS.md, PR 25,
has the rows per literal): one ``mig-state`` / ``mig-append`` round and
one STATE fan-out per group where a ballot moves several clients between
one pair of zones (``stable``'s batches of three), a ballot's groups
acting once its batch has executed (another send order, so other link
jitters), the initiator zone's backups watching the ACCEPT and COMMIT
endorsements they validated (a no-op event each once the watch runs out
inside the run), and in the crash scenarios fewer views — a replica no
longer climbs alone past its zone (``primary-crash``: 45 ``ViewChange``
sends and view 3 before, 18 and view 1 now). ``wedged-endorsement`` on
``default`` now changes view once, after the heal: a backup suspects a
primary whose ACCEPT can no longer reach its quorum. The six literals of
``cross-zone-resend`` and ``retransmit`` (they migrate nothing) and the
flat-PBFT and two-level baselines' did not move.

The 42 literals of the scenarios that endorse, and the two-level and
Steward baselines', were generated again when endorsement became linear
(EXPERIMENTS.md, "Linear endorsement", has the rows per literal): a
member sends its vote to the leader alone and the leader sends its
certificate to the zone — 6 ``EndorseVote`` sends per instance in a zone
of four, 12 or 15 before — so fewer deliveries and another interleaving
everywhere a zone endorses. The crash, partition and isolation scenarios also run the
crash-restart rules that came with it (DESIGN.md §6.5): a member re-sends
its vote to a new primary after a local view change, a replica asks its
zone for a gap instead of suspecting its primary over it, a replica back
in a view its zone left joins the zone's, queries do not judge a new
primary before it could re-drive, and a deadline armed during a view
change judges nobody. The three ``retransmit`` literals (local traffic
only) and the flat-PBFT baseline's did not move.

The six ``reads`` / ``reads-faulty`` literals were generated again when a
read began to complete on one reply whose Merkle proof binds its value to
the certified state root (EXPERIMENTS.md, "One-reply certified reads"),
and again when a read began to ask one member — the one that completed
the client's last read in the zone — instead of ``f+1`` (EXPERIMENTS.md,
"One certified read, one member"): on ``default``, ``ReadRequest`` rows
406 → 208 in ``reads`` and 504 → 336 in ``reads-faulty``, whose
read-timeout fallbacks go 6 → 3. A refused read asks the other members
before ``f+1`` refusals send it through consensus, one LAN round trip
later, and the workload's draws land in another order: ``reads``
completes 289 operations in its window, 379 before, with as many
migrations (26) and the same latency per kind but for the fallbacks.
The 42 write-path literals did not move.

The 18 literals of the scenarios that change a zone's view
(``primary-crash``, ``primary-crash-leaderless``, ``lost-accepted``,
``wedged-endorsement``, ``initiator-isolated`` and ``retransmit``, on
every backend) were generated again when prepared proofs became
references (EXPERIMENTS.md, "View change by reference"): a VIEW-CHANGE
costs its receiver one signature unit, not ``1 + 3k``, and a NEW-VIEW
``1 + 3 + k``, so each is taken in sooner and the runs interleave
differently after it. Every run sends as many VIEW-CHANGEs and NEW-VIEWs
as before, ends in the same views and fetches nothing.
``follower-crash-leaderless`` (its view change carries no proof), the
other 24 literals and the three baselines' did not move.

The 19 literals of ``leaderless``, ``follower-crash-leaderless``,
``primary-crash-leaderless``, ``initiator-isolated`` and
``lost-accepted`` on every backend, ``primary-crash`` on ``default`` and
``syncbft`` and ``wedged-endorsement`` on ``rotating`` and ``syncbft``
were generated again when the sync engine's failure handling became one
watch per round and one deadline per ballot (EXPERIMENTS.md, "One backup
watch, one deadline per ballot", has the rows per literal). A new zone
primary emits ``sync.redrive`` on every backend, not only ``rotating``.
A follower backup watches its ACCEPTED round too (D10), so more watches
fire, and one on a round its primary never opened asks the zone
(``EndorseQuery``) before it suspects: ``primary-crash`` on ``default``
sends 9, with the same 18 VIEW-CHANGEs and 6 NEW-VIEWs. A COMMIT cancels
a pending deadline instead of letting it fire. A superseded ballot no
longer stays ``last_accepted`` (D11): ``primary-crash-leaderless`` on
``default`` has 231 ``sync.commit`` rows, not 198. The other 29 literals
and the three baselines' did not move.

The 39 literals of the scenarios that migrate and the Steward baseline's
were generated again when a source zone began to ship R(c) on accepting
a ballot, not on executing its COMMIT (EXPERIMENTS.md, "Ship R(c) at
acceptance"). A migration completes about one WAN leg sooner, so the
fault-free runs hold more of them (``stable`` on ``default``: 256
``sync.commit`` rows, not 232; Steward 173, not 160). In the crash and
partition scenarios two more things move. The initiator primary's
commit round now has the ballot's deadline too, so a COMMIT endorsement
whose pre-prepare a partition swallowed is led again
(``wedged-endorsement`` on ``default``: 782 rows, not 24). And a STATE
shipped while its destination is cut off is lost until the
destination's STATE timer asks again, 4 s after it executed the ballot,
past the end of these 3 s runs (``lost-accepted`` on ``default``: 264
rows, not 968; ``initiator-isolated`` and ``wedged-endorsement`` on
``rotating``: 72 and 54, not 560 and 516). The six literals of
``cross-zone-resend`` and ``retransmit`` and the flat-PBFT and two-level
baselines' did not move.

The three ``clusters`` literals were generated again when a
cross-cluster migration began to be decided once (EXPERIMENTS.md, "A
cross-cluster migration decided once"). A CROSS-COMMIT is checked once,
as ``cross-commit``, not again as ``commit``; every member of the
destination's orderer zone checks the PREPARED it receives, not only
its primary; and a held ballot's commit round opens and closes a
``commit`` span like any other. On ``default`` ``cert.check`` rows go
1 880 → 1 611 (``commit`` 557 → 208, ``cross-prepared`` 80 → 160, 41
more spans); on ``syncbft`` 1 401 → 1 187 (``commit`` 400 → 144,
``cross-prepared`` 84 → 126, 42 more spans); every other row is the
same. On ``rotating`` the cross-cluster engine now asks the backend
which zone orders a cluster's half, so a move into the cluster's second
zone is coordinated where its client sent it: ``sync.commit`` rows 296 →
512, CROSS-COMMITs 9 → 18. The other 42 literals and the three
baselines' did not move.

The nine literals of ``lost-accepted``, ``initiator-isolated`` and
``clusters``, and two named below, were generated again when
RESPONSE-QUERY came to ask only for a COMMIT or a STATE (EXPERIMENTS.md,
"RESPONSE-QUERY asks for a COMMIT or a STATE"). An initiator primary
short of its ACCEPTEDs re-leads the finished ACCEPT instance, which
re-sends the ACCEPT, and asks no ``accepted`` query; each follower
primary re-certifies ACCEPTED once, not twice (``lost-accepted`` on
``default``: 232 → 224 ACCEPTED sends, ``ResponseQuery`` 328 → 320;
``initiator-isolated``: 480 → 448; the same 38 and 66 completions); the
primary's ``accepted`` span keeps the start of its first ACCEPT across
the re-sends (longest on ``default`` 955 ms). A successor of a ballot
held for its CROSS-COMMIT waits for it without asking: ``clusters``
sends no ``ResponseQuery`` (325 / 301 / 120 before on ``default`` /
``rotating`` / ``syncbft``), and completes 141 → 116, 128 → 133 and 141
→ 137 operations. A destination primary already leading a group's append
round in its view does not lead it again for a second proxy's STATE:
``follower-crash-leaderless`` and ``wedged-endorsement`` on ``default``
move too. Leading it again, the first led one round more with as many
migrations applied, and the second applied 252 migrations, not 260, and
sent 400 ``ResponseQuery``, not 348. The other 34 literals and the three
baselines' did not move.

The ``clusters`` literals on ``default`` and ``syncbft`` were generated
again when ``migration.executed`` began to name the request's certified
claim as its ``source`` on every backend (EXPERIMENTS.md, "A migration
judged on its claim"): the destination cluster's half of a move reported
where its own regional meta-data last saw the client, stale by design
(§VI). 24 rows on ``default`` and 6 on ``syncbft`` change their
``source`` (``z2c1``'s request 28 under ballot ``26.z2``: z0 → z1), and
nothing else in either trace moves. The other 43 literals and the three
baselines' did not move.
"""

from __future__ import annotations

import hashlib
import re
from typing import NamedTuple

import pytest

from repro.bench.runner import PROTOCOLS, PointSpec, run_point
from repro.consensus import backend_names
from repro.core.deployment import ZiziphusConfig, build_ziziphus
from repro.obs.bus import Instrumentation
from repro.obs.export import trace_jsonl
from repro.pbft.faults import make_behavior
from repro.reads import ReadConfig
from repro.workload.driver import ClosedLoopDriver
from repro.workload.generator import WorkloadMix
from tests.conftest import fast_pbft, fast_sync

BACKENDS = backend_names()


def _crash(node_id):
    return lambda dep: dep.nodes[node_id].crash()


def _partition(zone_id, last=0):
    """Cut the zone (or only its ``last`` members) off from everything."""
    def apply(dep):
        cut = set(dep.directory.zone(zone_id).members[-last:])
        dep.network.set_partition([set(dep.network.node_ids) - cut, cut])
    return apply


def _mute_towards_z0(dep):
    """Drop every message into z0: it sends ACCEPT but hears no ACCEPTED."""
    targets = dep.directory.zone("z0").members
    for src in dep.nodes:
        if src not in targets:
            for dst in targets:
                dep.network.set_drop_rate(src, dst, 1.0)


def _heal(dep):
    dep.network.clear_faults()


class Scenario(NamedTuple):
    mix: WorkloadMix
    run_ms: float
    sync: dict = {}            # SyncConfig overrides on top of fast_sync()
    config: dict = {}          # ZiziphusConfig overrides
    clients: int = 2           # per zone
    faults: tuple = ()         # (at ms, fault(deployment)) pairs
    cross_zone: bool = False   # hash without cert.check / endorse.led
    behaviors: tuple = ()      # (node id, Byzantine behaviour name) pairs
    retransmit_ms: float | None = None   # client retransmission override
    causal: bool = False       # clients mint trace ids (txn.submit / .reply)


_SOME_GLOBAL = WorkloadMix(global_fraction=0.3)
_HALF_GLOBAL = WorkloadMix(global_fraction=0.5)
_HALF_READS = WorkloadMix(global_fraction=0.2, read_fraction=0.5)

SCENARIOS = {
    # Batches of up to three, so the batch timer and multi-request
    # ballots run too.
    "stable": Scenario(_SOME_GLOBAL, 600.0,
                       sync={"global_batch_size": 3,
                             "global_batch_timeout_ms": 2.0}),
    "leaderless": Scenario(_SOME_GLOBAL, 900.0,
                           sync={"stable_leader": False}),
    "full-prepare": Scenario(_SOME_GLOBAL, 600.0,
                             sync={"full_prepare_everywhere": True,
                                   "checkpoint_on_migration": True}),
    "clusters": Scenario(WorkloadMix(global_fraction=0.4,
                                     cross_cluster_fraction=0.5), 900.0,
                         config={"num_zones": 4, "num_clusters": 2}),
    "cross-zone": Scenario(WorkloadMix(global_fraction=0.1,
                                       cross_zone_fraction=0.6), 600.0,
                           cross_zone=True),
    # z1 is cut off while the first XZ-PROPOSEs are in flight and healed
    # just before the initiator's accept timeout (6 s), which re-sends
    # them from the banked endorsement.
    "cross-zone-resend": Scenario(
        WorkloadMix(global_fraction=0.0, cross_zone_fraction=1.0), 6_400.0,
        clients=1, cross_zone=True,
        faults=((2.0, _partition("z1")), (5_900.0, _heal))),
    # The initiator zone's primary and a follower zone's primary die
    # mid-ballot: the new primaries re-drive from banked evidence
    # (_redrive_initiator, _redrive_follower, _relead_accepted).
    "primary-crash": Scenario(
        _HALF_GLOBAL, 3_000.0,
        faults=((60.0, _crash("z0n0")), (60.0, _crash("z1n0")))),
    # Leaderless, crash times picked so a new primary finds a banked
    # promise endorsement whose PROMISE never left (the re-lead in
    # _redrive_follower; hit on default and syncbft).
    "primary-crash-leaderless": Scenario(
        _HALF_GLOBAL, 3_000.0, sync={"stable_leader": False},
        faults=((42.0, _crash("z0n0")),)),
    "follower-crash-leaderless": Scenario(
        _HALF_GLOBAL, 3_000.0, sync={"stable_leader": False},
        faults=((150.0, _crash("z1n0")),)),
    # z0 hears nothing for a while: its ACCEPTEDs are lost, and the phase
    # timeout re-leads the finished ACCEPT instance, whose re-sent ACCEPT
    # makes the followers re-certify the banked ACCEPTED.
    "lost-accepted": Scenario(
        _HALF_GLOBAL, 3_000.0,
        faults=((50.0, _mute_towards_z0), (700.0, _heal))),
    # z0 loses two members, so its ACCEPT endorsement cannot certify:
    # the accept-phase timeout re-leads the same body until the heal.
    "wedged-endorsement": Scenario(
        _HALF_GLOBAL, 3_000.0,
        faults=((40.0, _partition("z0", last=2)), (1_000.0, _heal))),
    # The whole initiator zone is cut off with ballots in flight.
    "initiator-isolated": Scenario(
        _HALF_GLOBAL, 3_000.0,
        faults=((50.0, _partition("z0")), (1_500.0, _heal))),
    # The client side. Certified reads: one asked member, one proven
    # reply, session vector, and the rejection fallback a record in
    # migration takes.
    "reads": Scenario(_HALF_READS, 600.0, clients=3,
                      config={"read": ReadConfig(enabled=True)}),
    # z0 serves reads with a frozen certificate from one member and
    # nothing from another, under a bound short enough to expire it:
    # read.stale, the read timeout and the transactional fallback —
    # with the clients' own txn.submit / txn.reply events in the hash.
    "reads-faulty": Scenario(
        _HALF_READS, 900.0, clients=3, causal=True,
        config={"read": ReadConfig(enabled=True, staleness_bound_ms=120.0,
                                   read_timeout_ms=40.0)},
        behaviors=(("z0n1", "stale-read"), ("z0n2", "silent"))),
    # z0's primary dies early and clients retransmit soon: the multicast
    # to the whole zone, the view changes it provokes and the view hint
    # later requests are addressed by. Local traffic only — what a
    # retransmitted *migration* is answered is pinned by the regression
    # tests of tests/test_client_edge_cases.py instead.
    "retransmit": Scenario(WorkloadMix(global_fraction=0.0), 800.0,
                           retransmit_ms=60.0,
                           faults=((5.0, _crash("z0n0")),)),
}


def _sha(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def run_scenario(name: str, backend: str) -> Instrumentation:
    """Run one scenario on one backend; return what it recorded."""
    scenario = SCENARIOS[name]
    behaviors = {node: make_behavior(kind)
                 for node, kind in scenario.behaviors}
    config = ZiziphusConfig(**{"num_zones": 3, "f": 1, "seed": 11,
                               "pbft": fast_pbft(),
                               "sync": fast_sync(**scenario.sync),
                               "backend": backend, "behaviors": behaviors,
                               **scenario.config})
    dep = build_ziziphus(config)
    obs = Instrumentation(recording=True,
                          causal=scenario.causal).attach(dep)
    driver = ClosedLoopDriver(dep, scenario.mix,
                              clients_per_zone=scenario.clients, seed=11)
    if scenario.retransmit_ms is not None:
        for client in dep.clients.values():
            client.retransmit_ms = scenario.retransmit_ms
    driver.start()
    for at_ms, fault in scenario.faults:
        dep.sim.schedule(at_ms, fault, dep)
    dep.sim.run(until=scenario.run_ms)
    assert driver.records, "the run completed nothing"
    return obs


def transcript(name: str, backend: str) -> str:
    """Run one scenario on one backend; hash its exported trace."""
    lines = trace_jsonl(run_scenario(name, backend)).splitlines()[1:]
    if SCENARIOS[name].cross_zone:                     # meta line dropped
        lines = [re.sub(r'"endorse\.led":\d+,', "", line) for line in lines
                 if '"kind":"cert.check"' not in line]
    return _sha(lines)


def baseline_transcript(protocol: str) -> str:
    """One recorded ``run_point`` of a §VII protocol; hash its trace."""
    result = run_point(PointSpec(protocol=protocol, clients_per_zone=3,
                                 global_fraction=0.3, warmup_ms=50.0,
                                 measure_ms=350.0, seed=11,
                                 record_trace=True))
    assert result.metrics.completed, "the run completed nothing"
    return _sha(trace_jsonl(result.obs).splitlines()[1:])


PINNED: dict[tuple[str, str], str] = {
    ("stable", "default"):
        "4edf0f715ce8124da1fa310884d6eceeccd9f6d846c62b0d2c9824b962dec5f2",
    ("stable", "rotating"):
        "d3ea82f15585d7a83332a86a396a55385d0a98de7e29730133685e1863aed424",
    ("stable", "syncbft"):
        "278a2df3f6766f035a53f08828990e1797c6f503f9b6c267d2534a16cfe2abc6",
    ("leaderless", "default"):
        "7d1baeec6051f931d28e8f6607997d974b1af746400b64746f9fa53995db21a8",
    ("leaderless", "rotating"):
        "38c4c66cf183a965f80e2a2aa4102c8a675dd156d12ab19f38edc83346fd56fc",
    ("leaderless", "syncbft"):
        "20391a91faa98afbe57055ac346c41c315eb1142487a57f02f43ba79c12ce7fe",
    ("full-prepare", "default"):
        "40cc07de8d91c0f8759aba944786aed28049cd5feefbd2fb2ff7886baf4c10fe",
    ("full-prepare", "rotating"):
        "e43ff055815bef2207e0a853ca1f3c48243b190bb779be634bfa048f9a5cd794",
    ("full-prepare", "syncbft"):
        "063683214118c7a1818f06d7b68f79070db1265bff602f18af40c164a11a2b77",
    ("clusters", "default"):
        "9f8db269fb987bafba4cdea5c01a8b936c89cd7fc983f254b2b55355bdb18e81",
    ("clusters", "rotating"):
        "277687a83979d17be66c9bdb14a60c5f12e961a2ecba80330dcbdfb60c7e868b",
    ("clusters", "syncbft"):
        "36341f1764fea01fa2f421629dc18a7f2c8a55816227ad2783b6b2aac4c3fb29",
    ("cross-zone", "default"):
        "004dbe0766abf465cbdc11d03e9d502816697d7f998e2d39c2934c8e9fcca573",
    ("cross-zone", "rotating"):
        "c6017c7b3be247d6f9e451f94122abd312daf0a31f9ece93d3c8d65d64c86ff9",
    ("cross-zone", "syncbft"):
        "9192f7fb38d6afc6d20a8ae18c42cec9613fb4f46122e5f50da7384e57e4fe9f",
    ("cross-zone-resend", "default"):
        "bf3f0d1d74b3d6423869b4e5a8eaea36f2046978a13fc85505ea2542f0ae2e89",
    ("cross-zone-resend", "rotating"):
        "bf3f0d1d74b3d6423869b4e5a8eaea36f2046978a13fc85505ea2542f0ae2e89",
    ("cross-zone-resend", "syncbft"):
        "342d3e35f7c50a36e3eefd9fc4817b43a60ecdfe5db1316290540eb40c167d02",
    ("primary-crash", "default"):
        "7c34bd6c447c82120c032baa3c5b20648d3430c83f5213f8fb2c0178698cbb77",
    ("primary-crash", "rotating"):
        "353c50b4969580cade331d53692f37f6297352b79898d6844e4d5cd3dd32a5a3",
    ("primary-crash", "syncbft"):
        "ff66b5a9ccfdb3433af0288140b87f902da2a26d1f6c2bac29c0ec6d3afbf572",
    ("primary-crash-leaderless", "default"):
        "efe7cdff486bd75e36e984587c54319042d4bbbb390db5ec6ac9580441136a7c",
    ("primary-crash-leaderless", "rotating"):
        "c817b24afe3604be02cf6316c51147be612ad46158f64a98683f1509eef6bb70",
    ("primary-crash-leaderless", "syncbft"):
        "656240add7598239e7fdddfe556343dbe14b52b71a7b2434dea9982cba9c13ec",
    ("follower-crash-leaderless", "default"):
        "d9f7a6bc8c3546f016f13e2de21073b9e78aef03be35adbece52bc1e961482ef",
    ("follower-crash-leaderless", "rotating"):
        "6c52b48ef8d549d0d7c80d3abfd60e9e72b1537bb9f0cd326d337ec39f9682e0",
    ("follower-crash-leaderless", "syncbft"):
        "1b81fcb361490ceb44d729fbac23b6b79170462a5a64aa19defde281d65784d7",
    ("lost-accepted", "default"):
        "c037ca44e72eea09a413d1beedb97d08999ba182c9bf1b9baa56b9fc9ad616c6",
    ("lost-accepted", "rotating"):
        "53a5e9b0f44de783f1d25c92c645d972c8db38b51b2bf08a69cd373dc39aefe9",
    ("lost-accepted", "syncbft"):
        "4804024ac949ca843cc1fca007b7c9c95e012eaa79770ee9577d3daac0ce5dd3",
    ("wedged-endorsement", "default"):
        "f57df72740c0f4a7d2853e90bc8cb57a26d1715e032ab101a51279cf4bec6fc7",
    ("wedged-endorsement", "rotating"):
        "12ac58a8708a8942ac370fe3db6c48ce2b1fc5425d6af93923a1dc0b9daf7403",
    ("wedged-endorsement", "syncbft"):
        "3bc90c8974531d50ad84a854ff2677621a78dc2157a73f15a57c6f817fb1c947",
    ("initiator-isolated", "default"):
        "360008556b1c2d77391d53da47f68f3c0ebe035217c4833320ef2623ee6c8628",
    ("initiator-isolated", "rotating"):
        "8def2ca3971ca437d8cb2254cfe8b701a38dca38440dce492334ac4667764d9d",
    ("initiator-isolated", "syncbft"):
        "a20b8726c6a770c74e9d55feb0db9d537afb9c0aad8490c0f811188e32a17aaf",
    ("reads", "default"):
        "b76196bccee89922fbb72caf59332250b8e58bccedb4b88ad18829a7c3e80e78",
    ("reads", "rotating"):
        "18d201cc3baae642ddec0e40f231078e4464012a15e2014218f0b16c68135063",
    ("reads", "syncbft"):
        "78f10c2efa037b6a9a0ac551ef2d08f1058f76687642831f581d6c2e99a4734b",
    ("reads-faulty", "default"):
        "083b461548620b9a557e381d23553a33fb0a1b2abf00c50e55bff977adb9ccd8",
    ("reads-faulty", "rotating"):
        "d9e85aaa010b80b663986a9cfeffc60baa9ca769fde71f374a04b716eed1ec07",
    ("reads-faulty", "syncbft"):
        "039291d8d9801a48fcb4154ee8864e2add37da3b5a3c255bf88c200324c83b37",
    ("retransmit", "default"):
        "4df20172f368ecc4cb84df0ea3eb23fe3906566041d29324ce1661448195c299",
    ("retransmit", "rotating"):
        "4df20172f368ecc4cb84df0ea3eb23fe3906566041d29324ce1661448195c299",
    ("retransmit", "syncbft"):
        "d1b0eebb7dd9a4def7da35406cffa7c4d819732e33cc018d3d026b1f17ab3611",
}

#: The three baselines of the evaluation, through ``run_point``: the
#: flat client's region move, the two-level and Steward reply rules.
PINNED_BASELINES: dict[str, str] = {
    "flat-pbft":
        "552bcbded4871e897af88c87e6dd1e6030253e51424568c782673772a6dcaec2",
    "two-level":
        "69904f13e0685c0bfc44bc0593e496f9e2813c8c150f512d3999b91ae5bcd334",
    "steward":
        "21fc26e62dc5691f41b0736534eebe7181a1694d7017f94df796c01a76a478b8",
}


@pytest.mark.parametrize("name,backend", sorted(PINNED))
def test_transcript_is_byte_identical(name, backend):
    assert transcript(name, backend) == PINNED[(name, backend)]


def test_every_scenario_is_pinned_on_every_backend():
    assert sorted(PINNED) == sorted(
        (name, backend) for name in SCENARIOS for backend in BACKENDS)
    assert sorted(PINNED_BASELINES) == sorted(set(PROTOCOLS) - {"ziziphus"})


def test_a_re_sent_accept_keeps_the_accepted_wait_from_the_first():
    """``lost-accepted``: z0 hears no ACCEPTED from 50 to 700 ms, and its
    primary re-sends the ACCEPT. Its ``accepted`` span runs from the
    first send (955 ms); re-opened at each re-send, it recorded 53 ms."""
    obs = run_scenario("lost-accepted", "default")
    assert max(span.duration_ms for span in obs.spans
               if span.phase == "accepted") > 650.0


@pytest.mark.parametrize("protocol", sorted(PINNED_BASELINES))
def test_baseline_transcript_is_byte_identical(protocol):
    assert baseline_transcript(protocol) == PINNED_BASELINES[protocol]


if __name__ == "__main__":
    for scenario in SCENARIOS:
        for backend_name in BACKENDS:
            print(f'    ("{scenario}", "{backend_name}"):\n'
                  f'        "{transcript(scenario, backend_name)}",')
    for protocol_name in PINNED_BASELINES:
        print(f'    "{protocol_name}":\n'
              f'        "{baseline_transcript(protocol_name)}",')
