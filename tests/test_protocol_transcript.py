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
        "36b17b9b9986ef70a9f935b9976b82a4dd990769b58d71850e382f2086659f9c",
    ("stable", "rotating"):
        "4603ac263d4dbd8f00f43f52bee4b873be0e604bb101c24e8b2d42445df568dc",
    ("stable", "syncbft"):
        "7956aa7fb7c838deee7d1fbdb56b86a7123916210a8a27e6504ba8233aa927e5",
    ("leaderless", "default"):
        "a32f7cd35bd84d84e96608db3ca2d188582b8997a5237af71793b53050e3739a",
    ("leaderless", "rotating"):
        "8499cd60510aec14f405bded8e031cfa6c572fa4434f962b9ab156b0ea0cd400",
    ("leaderless", "syncbft"):
        "2dbd00a8f5c91f6d32a9510ad98d7ecf55acc550836f9c96eafce4ba106aa531",
    ("full-prepare", "default"):
        "1082d5040580eb8476feab673dfe21369bb6281912b158814698700be3f687c3",
    ("full-prepare", "rotating"):
        "5697eb6fd54491e50af15ef60ac66ec70dd015b0472e454c9cbdffa6b764d2f2",
    ("full-prepare", "syncbft"):
        "3908f6146ba1f8bdbf35979ce526d949f62e56da609291b2ea706e5041c5b420",
    ("clusters", "default"):
        "909b7706222fe006c01d0ddf16e1680f85617035e200ec8fb7f9e7b76a820ea0",
    ("clusters", "rotating"):
        "29468c2afd12c84d1b190fd321a5bb19adb7b38a30d967a5ed1ef23cbf994873",
    ("clusters", "syncbft"):
        "2dde31b681b9eabd352d1baa1f353d3ecceb4d88bc21f4986427e551f5804c2a",
    ("cross-zone", "default"):
        "5864287f4dd0dc55511dc149dd73cb516605ee90be5f7bccffefdaafb6fc0e8b",
    ("cross-zone", "rotating"):
        "44cf6f82daeb49488618f65c1b68f2d1d111b07d4d92f4c01b8d5bac391299a1",
    ("cross-zone", "syncbft"):
        "d94c49ec57ad03a72968b040a8dad2f93a857dd53fc3ece21f1e3a7b01ca79b7",
    ("cross-zone-resend", "default"):
        "7e8517ee136d4ac9ed4ab07ed6e5a198cf52cdf0a8e8ed7652596aefa9ea467c",
    ("cross-zone-resend", "rotating"):
        "7e8517ee136d4ac9ed4ab07ed6e5a198cf52cdf0a8e8ed7652596aefa9ea467c",
    ("cross-zone-resend", "syncbft"):
        "86ebe08abdccafc9e0b9b72f9f8c230402bd0f414caaa4dda494e12b47dea3d7",
    ("primary-crash", "default"):
        "6f87a2fae76cd602853bbefc61626c548bacd0f009c74710084d4d0de4a71481",
    ("primary-crash", "rotating"):
        "a00ff8c730c9d327f41eff18e06857ca7f1b0e14002c17d69567655531a29625",
    ("primary-crash", "syncbft"):
        "b00f98522809f9e2b78bc24f53724280116d3060363587263dd7fe967190e7de",
    ("primary-crash-leaderless", "default"):
        "02d386d9abf22d1a33280bf0b1e53000706029f29313693435fac8e18a337d35",
    ("primary-crash-leaderless", "rotating"):
        "7de123c1ccb569a10a44da20e7dd0c88e8227a35b51017561e30a407862b0fbe",
    ("primary-crash-leaderless", "syncbft"):
        "c521294a89709bf0af80c38aa13f421751a556f70ac6935551afde8281a1b011",
    ("follower-crash-leaderless", "default"):
        "2b09b43e6ff508911fbb55e815549bd0eb6ea35533b1773aef376d59a7001353",
    ("follower-crash-leaderless", "rotating"):
        "90d72599a588dafb9c5317da013bc57e8284cce15eb9b6fe91d0703ad7ad2fed",
    ("follower-crash-leaderless", "syncbft"):
        "4f1c17e1675a0e6f1101f195fc552f6b86c1de58da84ded1a5ac56003bc1c27b",
    ("lost-accepted", "default"):
        "f982bfed5aa4b079b16e64cd3804aea7176ee658a789a49c31ec61295bcaa856",
    ("lost-accepted", "rotating"):
        "f3311984b3294236199ba2d24078bb42c331632d584517756c1de07a86940aef",
    ("lost-accepted", "syncbft"):
        "049c59457948cfe60ff24803161116933e478564a3248589bc2551a3e9c4aa49",
    ("wedged-endorsement", "default"):
        "97dc56d4b9b726a73601b0e132e539d0c18e41e9f882dd815f325c5986b94e8c",
    ("wedged-endorsement", "rotating"):
        "da3bc44316a9abaa00bd9c0aaf23c3203ee9b3d2cf28ff57b22b99dfe66c830b",
    ("wedged-endorsement", "syncbft"):
        "e4ee340d87bb8d349fe1045bbfa46facd00599dff51403a4e009ce54fcb49c37",
    ("initiator-isolated", "default"):
        "11037775c50caa085f3190adfa7d1b09af49dc72957aa919b7a9df702fecb59c",
    ("initiator-isolated", "rotating"):
        "92e81dd79d5b7f14cf14df2536669360590f201a064eac8e9e032e5c438c5465",
    ("initiator-isolated", "syncbft"):
        "3c7cf86ba36a14ce8b817e905cce67bb9f87e3b2cfbe7eab8a54a7469533e3bb",
    ("reads", "default"):
        "08a11a0ed6a30a2717709a571e7c1624eec8da4e67223c20ed5a02d8ba343dce",
    ("reads", "rotating"):
        "1834b75e71b6cbe1654ea8ae945af4a0858ac4888d2e10dc25209744cb3abf34",
    ("reads", "syncbft"):
        "9a40b9f222b720659543e522658d8320d9864a59604fac91b26a8141750c24b9",
    ("reads-faulty", "default"):
        "be9f6e636dade1bdbc336f92f4046f78d46c94913ae3fd366a90038c6a07f69e",
    ("reads-faulty", "rotating"):
        "e5a9f4d4beef945f8251b2314375b7f50a245046640ce882644a776eb157e37b",
    ("reads-faulty", "syncbft"):
        "c23e1c37a866db21ff8ac295ce3d4f1581f386d37efcd1df2d2dfbfc7d4a275b",
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
        "8ddbbcd8db23ae131b1c0debed68ec86266011e6f810a0df7c321902e22cd278",
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
