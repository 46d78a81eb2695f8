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
(fan-out, ``f+1`` verified votes, rejection fallback), reads against a
stale and a silent replica (``read.stale``, the read timeout, the
fallback, the clients' ``txn.*`` events), retransmission to a zone whose
primary is dead (the multicast, the view hint), and one recorded
``run_point`` per baseline protocol of the evaluation.

The six ``reads`` / ``reads-faulty`` literals were generated again when
the read path began to send what its quorums need (a read asks ``2f+1``
members and widens once on disagreement, a refusal is a vote, a zone
certifies once per epoch): per run, a quarter fewer ``ReadRequest`` /
``ReadReply`` / ``read.serve`` rows and a sixth of the ``WatermarkShare``
/ ``read.watermark`` rows (EXPERIMENTS.md, PR 22, has the counts). The
42 write-path literals did not move.

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
    # The client side. Certified reads: fan-out, f+1 matching verified
    # replies, session vector, and the rejection fallback a record in
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
        "c8dcbd0d0cf6c7ec791f71c5ac9be3f62e474c3ff38f4715952847acb721cacf",
    ("stable", "rotating"):
        "3e396e3c14ae625337f06216c3f3ffc610c0ea62d7b365b84c54be332a126ab6",
    ("stable", "syncbft"):
        "5bda04286020ddf4765d77d7b6f67ed915d42bffa1fce80ab087dcfaf341f8ff",
    ("leaderless", "default"):
        "77a8ebe0af0172f63b5e029b1fa0f5405cb362dfc6467dfc6d64ca726d6e853c",
    ("leaderless", "rotating"):
        "53f6cde8bc806f39c5d155b4d13804a000df4a5b53b414ff6a9e4234faa4b72a",
    ("leaderless", "syncbft"):
        "29d12c129ef4b02bdb55ec80944fc9162bd4c9c0f8669cae76837a963ec6e82f",
    ("full-prepare", "default"):
        "18368fc9aade30cf35d4ddf6ae72a0b5de4fff9b35fd853f5b84bbe472e39662",
    ("full-prepare", "rotating"):
        "e18714f7b3c7e85e64d8fe0dc3f2a4ce90b15f5556c33c48c8e098cd8ace9e98",
    ("full-prepare", "syncbft"):
        "9f23a673c4eaf21dbb06d4c657a890d93d44e64effaa47be35265b9122e1afe5",
    ("clusters", "default"):
        "bcc181a1543a11b8492e648ecfaa58266c327f8b712fd7de6425f35e04460bd5",
    ("clusters", "rotating"):
        "7487b4b8d514800185b3b7cdcbcb8b518f6139509a6e834910232c108babc728",
    ("clusters", "syncbft"):
        "5cbbd7d3c78c03c35afaf2ccfd30e3322a1d98e1400c35b4d9597bb270c94a65",
    ("cross-zone", "default"):
        "6fc74f805800af36edda570ff51ff31bc82516698b7ed099f8c2d67eede0f111",
    ("cross-zone", "rotating"):
        "0e22f8384d57cb355246cf7f77f7867102e735771d5de27d62271bdfadef6e1c",
    ("cross-zone", "syncbft"):
        "a65f6c86e7e91532855bfc8566c129c20c3f2981a983fc3d6477670286034910",
    ("cross-zone-resend", "default"):
        "7e8517ee136d4ac9ed4ab07ed6e5a198cf52cdf0a8e8ed7652596aefa9ea467c",
    ("cross-zone-resend", "rotating"):
        "7e8517ee136d4ac9ed4ab07ed6e5a198cf52cdf0a8e8ed7652596aefa9ea467c",
    ("cross-zone-resend", "syncbft"):
        "86ebe08abdccafc9e0b9b72f9f8c230402bd0f414caaa4dda494e12b47dea3d7",
    ("primary-crash", "default"):
        "615aa8970d00481ec042d7ab7cde5c3889e12c1a276321392737733d4a87b9c2",
    ("primary-crash", "rotating"):
        "c425dc0a83b8724931b07e649c4279d6e67b0b1881227ea418b08c1b0959b42b",
    ("primary-crash", "syncbft"):
        "b02f543dc669c0c1e65dc595b843bf41a90f513fd888aed0c3c933ff7a53f95d",
    ("primary-crash-leaderless", "default"):
        "5db1feb853ab21b718aaf0bdf9c926143240bdd1ebf930ed99f576588fb0fdcf",
    ("primary-crash-leaderless", "rotating"):
        "37a802be12321740ea90e4b77725b9b06dccdcf44dc747d26f429c6c1860567a",
    ("primary-crash-leaderless", "syncbft"):
        "9accd29f8cd60a5509e4e45afdb991199e91eccaf9506fe22eca0fc2f008e0ef",
    ("follower-crash-leaderless", "default"):
        "3794b3f997bd118fec41b5de6f3f65cf24dca815ae6313ee21061f30106feb63",
    ("follower-crash-leaderless", "rotating"):
        "12f4abbb6b05a4cf924550e293c0f59e77a5f71134cbf350d7012e3ae78550ef",
    ("follower-crash-leaderless", "syncbft"):
        "dae0732d5c90acd3d145170bd14a60e0f4e249be3885dde179c945442040f4c8",
    ("lost-accepted", "default"):
        "414c396ffb0d25602d8faa0b47f01b4e4a31c0b0dc9a2a1edccced16927f6084",
    ("lost-accepted", "rotating"):
        "55ee1748ef2863e89e36f558199daa8f825a4efca2d6a7ed45cf550e040e7015",
    ("lost-accepted", "syncbft"):
        "a83a9aa6f8b267c295ebfb53167803e238a6f5432d9d28752bc2d8fbee6d6d2b",
    ("wedged-endorsement", "default"):
        "0150df1df7f2198c1c242d3ef53661f090345c042c52f918e82c97a2902a1fa9",
    ("wedged-endorsement", "rotating"):
        "f54861e0389aa7024e918914eef4c94c7ee402870f8295f3f75ae240dc411624",
    ("wedged-endorsement", "syncbft"):
        "20cba923f0390bc6d4f6db0b89709debbb0a7abc2e1a5b98826c9e4315ae7302",
    ("initiator-isolated", "default"):
        "5302b8390cd2fbbd4db327b1dac9a00a91e44447f2d00779fd52bc890c3341f2",
    ("initiator-isolated", "rotating"):
        "db8d6f8c417c0c21cc907769198b880935c2773c8afaa013daa61e2925261498",
    ("initiator-isolated", "syncbft"):
        "1eb6a76b04b0fd4bcdccfc1360b432bf5d698cd37e57fc117a3cf718ddfd2906",
    ("reads", "default"):
        "f9a2e2a9ba54f4b6fa913b794865e2dccd9d6d943c1041f288118dec7aeee882",
    ("reads", "rotating"):
        "735a9ab0b1742465e7ce9caf5760d163712a9cff3a087478926968d10adae4ae",
    ("reads", "syncbft"):
        "e2066062470ce9e6c9851b7f0c4b414ca3cde0557e65760b51835eb3d6f41c9a",
    ("reads-faulty", "default"):
        "bbed4df66d60ba36c11b7684c215668ab4f0d617ab3c298c3bab4b1204faf2e2",
    ("reads-faulty", "rotating"):
        "cbecafec8607688b9769dd3e2b30136aadacef60b28d435aee6500479eeee7d6",
    ("reads-faulty", "syncbft"):
        "ec1b9719c0aa5a4ad63915c7d8c4b4d121780c6e4456b589f20ec8e602fd1b93",
    ("retransmit", "default"):
        "a0dc7ad47d18762b36fce2ca4f34299c115cf1b973e67d952a832605f5c7f31c",
    ("retransmit", "rotating"):
        "a0dc7ad47d18762b36fce2ca4f34299c115cf1b973e67d952a832605f5c7f31c",
    ("retransmit", "syncbft"):
        "f7f396ccffbb1db0fe931a1020a63d5d8dbd44945c3f1f23e3155a6199e6cd20",
}

#: The three baselines of the evaluation, through ``run_point``: the
#: flat client's region move, the two-level and Steward reply rules.
PINNED_BASELINES: dict[str, str] = {
    "flat-pbft":
        "552bcbded4871e897af88c87e6dd1e6030253e51424568c782673772a6dcaec2",
    "two-level":
        "2bc03f232c12860074b1230bd577b496f3b30453747dc3bf3bdb83cede6973bf",
    "steward":
        "73826101e96f438c2e9430d95fbd7be8d319b902780af223af2ff359f9d095f0",
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
