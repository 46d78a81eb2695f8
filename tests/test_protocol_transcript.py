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
    # z0 hears nothing for a while: its ACCEPTEDs are lost, the phase
    # timeout queries the followers and re-multicasts ACCEPT, and both
    # make them re-certify the banked ACCEPTED.
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


def transcript(name: str, backend: str) -> str:
    """Run one scenario on one backend; hash its exported trace."""
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
    lines = trace_jsonl(obs).splitlines()[1:]          # drop the meta line
    if scenario.cross_zone:
        lines = [re.sub(r'"endorse\.led":\d+,', "", line) for line in lines
                 if '"kind":"cert.check"' not in line]
    assert driver.records, "the run completed nothing"
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
        "c51eb1297f1756ffdc646385fce1caced03c24760193095e67fa67f59c4468f7",
    ("stable", "rotating"):
        "519874cde1c76019b15f6e3f62693b24644475474455275049f273ec02e31c5c",
    ("stable", "syncbft"):
        "c476f3a1d42f45624306ddf6d38f790ce0a7f9ab1f13f6ebea4fcf25e2265625",
    ("leaderless", "default"):
        "6fa11aca6c60a8d7617cf74200fcd6423d39c47bb695a3ce03caafa9ba7affea",
    ("leaderless", "rotating"):
        "fae86a2b258711bba97300a1576b5b9015ae8c91ce0454135ef95d0cc30a9f9c",
    ("leaderless", "syncbft"):
        "5ce526a95c38274aafab70c62aa2a47508686dfc9568aa058bab19b03e0d622d",
    ("full-prepare", "default"):
        "9368d84672c2f23a270375d3214dee99e7cd829bc6850866fb13811117177fc7",
    ("full-prepare", "rotating"):
        "74301cd02565990f2405c5b63c068b0ea9119cd42dee4270c5738f4c35301417",
    ("full-prepare", "syncbft"):
        "06f52d488c8d9f5ba81f25d9df0dcc5defa7c298d036efbf12c06f9d4f27881a",
    ("clusters", "default"):
        "d98e7116347043a5aab9cb9059dfdaf0485860a5cd45e91ce27a7e6ff11df403",
    ("clusters", "rotating"):
        "35088d93b9e9f444dc2a5364b3f4cf9ee25c93924f6722c3da54c18e8781a996",
    ("clusters", "syncbft"):
        "181db0e39f7c3fa56faf0e332b9af40a46dfc71a25a232e306deab64fb2b6518",
    ("cross-zone", "default"):
        "d9e1943e25626a4027f41bcab143dfbc0975fa79cc88a1139cf5c2201e10a794",
    ("cross-zone", "rotating"):
        "f57e0d6fe3ef77fe185d2b0e0c1f59dccafe873d5098f25f1d1fae011dba3db6",
    ("cross-zone", "syncbft"):
        "6862cb1feff5f50449c9fae105e40aafda5b77441339f1628c01985ce27fdf80",
    ("cross-zone-resend", "default"):
        "bf3f0d1d74b3d6423869b4e5a8eaea36f2046978a13fc85505ea2542f0ae2e89",
    ("cross-zone-resend", "rotating"):
        "bf3f0d1d74b3d6423869b4e5a8eaea36f2046978a13fc85505ea2542f0ae2e89",
    ("cross-zone-resend", "syncbft"):
        "342d3e35f7c50a36e3eefd9fc4817b43a60ecdfe5db1316290540eb40c167d02",
    ("primary-crash", "default"):
        "e7eb689d4053f1edbab7dbb1107348999aeef2215ae7ddde3f6d61ed8c4f16ce",
    ("primary-crash", "rotating"):
        "1f8770c4091269e05b89c5692d79280d4e2af47bf5cb26c817c2d7448da86ae0",
    ("primary-crash", "syncbft"):
        "05e1304b6a29feb5a7dccac74b85d7a1d1f13d0585619c50ad9b273c0738abb9",
    ("primary-crash-leaderless", "default"):
        "82467425b36aee8dac17081f78022a7c49ec4b316a182c878fb1cabef60a7f22",
    ("primary-crash-leaderless", "rotating"):
        "f3f5a0679090a716375e0650ed0e101a9f4526cd412739945c0f38d2b0dd663c",
    ("primary-crash-leaderless", "syncbft"):
        "580fd106a03c145a3bfb5015828a4e3259789666d23f8d09ac637934a6b27f73",
    ("follower-crash-leaderless", "default"):
        "427477f48fcd382fbc1e2e0b7f687766477fd24a9e4e875d7737facfb398934e",
    ("follower-crash-leaderless", "rotating"):
        "528152162b7def4ea1de965db1a8b6da1f77c8d9de8e869c69315ea101afd4a6",
    ("follower-crash-leaderless", "syncbft"):
        "c6c2195e55a5223fed72cf8c30da6a61dcc021f583a100a9834da269d5f40174",
    ("lost-accepted", "default"):
        "bf07fa8c32200ffc44ff66635cedac41c4437ebd257f7bf5303568fd7306ba97",
    ("lost-accepted", "rotating"):
        "b245d7ecca2e449aa338f34e52b39716a3563e9e4b23c0d514259e1c2f295ad0",
    ("lost-accepted", "syncbft"):
        "2981f446c68ec076bad421be3e59ca4ac83eaa1e41de1b860e921094ce1767cb",
    ("wedged-endorsement", "default"):
        "7aeca9b36724bfce688e1f4e00a86fdab3b5d26a5b04f5a2f990cb495a4116aa",
    ("wedged-endorsement", "rotating"):
        "fa317c23ea27ad65dc8f52d2d95d7459e2fd36e6b15d274b4a3dfd7f0f6d1e36",
    ("wedged-endorsement", "syncbft"):
        "454b5e821b07aa0d41d3ac5f25a671db767b90da8c4b54685eac6ff098ed00cb",
    ("initiator-isolated", "default"):
        "3e290c5c0cd16b5e8c29c0a0be25e4e899708671cc19c3360f0f79d86b5cb1ac",
    ("initiator-isolated", "rotating"):
        "878d9f76ee78aa9886f417460f17b6860ad4c98800263c5919db708cd35a627f",
    ("initiator-isolated", "syncbft"):
        "cae3e4509834beab198334d07bbe153bcd2c853f2c51e2fd056093f64ca328b2",
    ("reads", "default"):
        "71236a3b3a8d9ac6cc1f59603990b177e8c671768ed9cf60f7227e86d82f6cb7",
    ("reads", "rotating"):
        "0680e62e8398a2ffa61da701529ab730e3d97b4a3db514e030e4aeebfdfdaabf",
    ("reads", "syncbft"):
        "7542d5a03dd239357ab23bbf191e112c2a59d1aa627f4db666a7036692e8c1a4",
    ("reads-faulty", "default"):
        "64581258c9a0998180da647ee79b71236510819f79845b9d0f97236915b8e62e",
    ("reads-faulty", "rotating"):
        "d7eff2b18adb7867f2fa245f3f9e1c06893d05d96a27068bc7d1bd75b467d480",
    ("reads-faulty", "syncbft"):
        "4979c587ed4e04ef0309e40828eaf32626cfdda3d3f45a5a95c6e98ff5a71793",
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
        "9f7d1736bfa55935a8eceae8cbff4383d617d5d38defaca9ab52af2104f3cfbd",
}


@pytest.mark.parametrize("name,backend", sorted(PINNED))
def test_transcript_is_byte_identical(name, backend):
    assert transcript(name, backend) == PINNED[(name, backend)]


def test_every_scenario_is_pinned_on_every_backend():
    assert sorted(PINNED) == sorted(
        (name, backend) for name in SCENARIOS for backend in BACKENDS)
    assert sorted(PINNED_BASELINES) == sorted(set(PROTOCOLS) - {"ziziphus"})


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
