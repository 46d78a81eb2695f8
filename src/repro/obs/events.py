"""Typed trace records and canonical protocol-phase names.

Phase names are shared across layers so the bench report, the JSONL trace,
and the Chrome trace all agree on what a span is called. The paper's
latency anatomy (§VII) splits into:

- intra-zone endorsement rounds (``endorse`` plus the endorsement-backed
  ``propose`` / ``accept`` / ``commit`` certificate builds),
- WAN Paxos waits (``promise`` / ``accepted`` round trips across zones),
- the PBFT pre-prepare→reply pipeline for local transactions (``pbft``),
- the data migration protocol's state copy (``migration-state`` on the
  source side, ``migration-copy`` on the destination side),
- cross-cluster coordination (``cross-cluster``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "TraceEvent", "Span",
    "PHASE_ENDORSE", "PHASE_PROPOSE", "PHASE_PROMISE", "PHASE_ACCEPT",
    "PHASE_ACCEPTED", "PHASE_COMMIT", "PHASE_GLOBAL_TXN",
    "PHASE_MIGRATION_STATE", "PHASE_MIGRATION_COPY", "PHASE_CROSS_CLUSTER",
    "PHASE_PBFT", "ALL_PHASES", "EVENT_KINDS", "is_known_kind",
]

#: Intra-zone endorsement round (Algorithms 1 and 2 building block).
PHASE_ENDORSE = "endorse"
#: Initiator-side PROPOSE certificate build (endorsement time).
PHASE_PROPOSE = "propose"
#: WAN wait from PROPOSE multicast until a majority of PROMISEs.
PHASE_PROMISE = "promise"
#: Initiator-side ACCEPT certificate build (endorsement time).
PHASE_ACCEPT = "accept"
#: WAN wait from ACCEPT multicast until a majority of ACCEPTEDs.
PHASE_ACCEPTED = "accepted"
#: Initiator-side COMMIT certificate build (endorsement time).
PHASE_COMMIT = "commit"
#: Whole global transaction: ballot assignment to execution.
PHASE_GLOBAL_TXN = "global-txn"
#: Source zone: R(c) export + endorsement until STATE ships.
PHASE_MIGRATION_STATE = "migration-state"
#: Destination zone: global commit until R(c) is appended locally.
PHASE_MIGRATION_COPY = "migration-copy"
#: Cross-cluster transaction: coordination start to combined execution.
PHASE_CROSS_CLUSTER = "cross-cluster"
#: PBFT consensus: pre-prepare adoption to batch execution (per slot).
PHASE_PBFT = "pbft"

ALL_PHASES = (
    PHASE_ENDORSE, PHASE_PROPOSE, PHASE_PROMISE, PHASE_ACCEPT,
    PHASE_ACCEPTED, PHASE_COMMIT, PHASE_GLOBAL_TXN, PHASE_MIGRATION_STATE,
    PHASE_MIGRATION_COPY, PHASE_CROSS_CLUSTER, PHASE_PBFT,
)

#: Canonical registry of every trace-event kind the system emits, with a
#: one-line meaning. The ``event-registry`` lint rule enforces this in
#: both directions — every ``obs.emit(ts, "<kind>", ...)`` call site in
#: ``src/repro`` must appear here, and every kind listed here must be
#: emitted somewhere — so a typo'd kind cannot silently disable a
#: conformance-monitor checker or rot in the registry. The monitor and
#: ``repro audit`` flag kinds outside this registry instead of ignoring
#: them.
EVENT_KINDS: dict[str, str] = {
    # Simulated network and process fabric.
    "net.send": "message handed to the network for delivery",
    "net.drop": "message dropped (fault rule, partition, disconnect)",
    "net.move": "node migrated to another region mid-run",
    "net.partition": "partition installed between node groups",
    "net.drop_rate": "probabilistic drop rule installed or cleared",
    "net.disconnect": "node taken offline",
    "net.reconnect": "node brought back online",
    "net.clear_faults": "all fault-injection rules removed",
    "proc.deliver": "verified envelope dispatched on the receiving node",
    "host.invalid": "inbound message refused: its envelope failed "
                    "signature verification or its payload is ill-shaped",
    "sample.node": "periodic queue-depth / utilization sample",
    # Intra-zone PBFT consensus.
    "pbft.preprepare": "pre-prepare observed (claimed digest, pre-check)",
    "pbft.commit": "batch committed-local with its commit signer set",
    "pbft.execute": "committed batch applied to the state machine",
    "pbft.catchup": "lagging replica adopted a stable-checkpoint snapshot",
    # Endorsement rounds and certificates.
    "endorse.preprepare": "endorsement pre-prepare observed",
    "cert.check": "certificate validity verdict at a receiver",
    # Top-level data-sync protocol (global transactions).
    "sync.start": "global transaction entered the top-level protocol",
    "sync.promise": "PROMISE from a zone for a ballot",
    "sync.accepted": "ACCEPTED from a zone for a ballot",
    "sync.commit": "global commit observed for a ballot",
    "sync.execute": "global transaction executed on a node",
    "sync.redrive": "new zone primary re-drives an in-flight ballot "
                    "its own zone initiated",
    # Data migration protocol.
    "migration.executed": "migration decision executed (source is the "
                          "request's claim, dest its destination)",
    "migration.state_sent": "source zone shipped the client state R(c)",
    "migration.applied": "destination node applied the shipped state",
    # Cross-cluster coordination.
    "cross.propose_sent": "CROSS-PROPOSE sent by destination proxies",
    "cross.commit_sent": "CROSS-COMMIT sent to the source cluster",
    "cross.prepared_sent": "PREPARED sent by source proxies",
    # Certified read path (repro.reads): consensus-free edge reads.
    "read.watermark": "replica certified a new commit watermark (f+1 "
                      "matching shares aggregated)",
    "read.serve": "replica answered a certified read request",
    "read.complete": "client completed a fast-path read (one reply whose "
                     "certificate, bound and proof it verified)",
    "read.fallback": "client abandoned the fast path for the "
                     "transactional path (explicit reason code)",
    "read.stale": "client rejected a genuine but stale watermark "
                  "certificate (age over the declared bound)",
    "read.invalid": "client rejected a provably fabricated read reply "
                    "(its certificate or proof does not bind its claims)",
    # Causal transaction tracing (repro.obs.causal; ``causal`` tier).
    "txn.submit": "client launched a traced request (trace id minted)",
    "txn.reply": "client completed a traced request (f+1 matching replies)",
    "trace.link": "consensus instance bound to the trace ids it carries",
    # Adversarial-campaign engine (repro.chaos).
    "chaos.scenario": "chaos scenario started (name, budget, expectation)",
    "chaos.action": "chaos fault or heal action applied to the deployment",
    "chaos.recovered": "first post-heal progress observed by the runner",
    # Liveness probes (consumed by the monitor's watchdog).
    "liveness.probe": "progress probe armed; progress due before timeout",
    "liveness.clear": "progress probe satisfied by subsequent progress",
    # Conformance monitor output.
    "monitor.violation": "online monitor flagged an invariant violation",
}


def is_known_kind(kind: str) -> bool:
    """Whether ``kind`` is part of the canonical event registry."""
    return kind in EVENT_KINDS


@dataclass(frozen=True)
class TraceEvent:
    """One structured point event on the bus.

    ``ts`` is simulated milliseconds; ``fields`` carries event-specific
    structured data (message type, latency, drop reason, ...).
    """

    ts: float
    kind: str
    node: str = ""
    fields: dict[str, Any] = field(default_factory=dict)


@dataclass
class Span:
    """One closed protocol-phase interval on one node."""

    phase: str
    key: str
    node: str
    start_ms: float
    end_ms: float
    fields: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        """Span length in simulated milliseconds."""
        return self.end_ms - self.start_ms
