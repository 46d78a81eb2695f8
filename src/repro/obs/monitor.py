"""Online protocol conformance monitor (paper §IV-§VI invariants).

Ziziphus's safety argument is that Byzantine behaviour stays *confined
within zones*: every cross-zone message carries a ``2f+1`` intra-zone
certificate, intra-zone PBFT never commits divergently, the top-level
data-sync protocol only commits after a majority of zones accepted, and
a migration moves a client's state to exactly one new owner, exactly
once. The monitor subscribes to the instrumentation bus and checks those
invariants *while the simulation runs*:

1. **PBFT agreement** — no two commits for one ``(group, view, seq)``
   with different digests, every commit backed by ``2f+1`` distinct
   in-group signers, and primaries never equivocate in pre-prepares
   (detected from the *claimed* digest each receiver observes, since a
   correct PBFT instance will refuse to commit divergently).
2. **Certificate validity** — every ``cert.check`` event is re-derived
   structurally (distinct signers, within zone membership, quorum size)
   on top of the deployment's own cryptographic verdict.
3. **Data-sync quorum** — a global transaction only commits after a
   majority of the cluster's zones promised (leaderless mode) and
   accepted its ballot.
4. **Migration atomicity** — judged on each request's certified claim:
   every copy of a migration request makes one move, under one ballot
   per cluster; under strict replay a request's claim is where the
   client's previous move left it; and the shipped state digest matches
   what is applied.
5. **Liveness watchdog** — per-item progress timers (global transaction,
   state copy, committed-but-unexecuted batch) flagged at ``finish()``
   with the protocol phase they stalled in.

The monitor is deterministic: timestamps are rounded exactly like the
JSONL exporter rounds them, so replaying an exported trace offline
(``repro audit``) reproduces the online verdicts byte-for-byte.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.obs.events import is_known_kind
from repro.obs.export import canonical_json
from repro.quorums import intra_zone_quorum, zone_majority

__all__ = ["MonitorConfig", "MonitorTopology", "ProtocolMonitor",
           "Violation"]

#: Hard cap on stored violations (a truly broken run stays bounded).
_MAX_VIOLATIONS = 10_000


@dataclass(frozen=True)
class MonitorConfig:
    """Tunables for the conformance monitor."""

    #: An open progress item older than this at ``finish()`` is a stall.
    stall_timeout_ms: float = 10_000.0


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation."""

    ts: float
    kind: str
    culprit: str
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"ts": self.ts, "kind": self.kind, "culprit": self.culprit,
                "detail": self.detail}


class MonitorTopology:
    """Zone/cluster membership maps the checkers consult.

    ``zones`` maps zone id to ``{"members": [...], "f": int,
    "cluster": str}``; ``clusters`` maps cluster id to its zone ids.
    PBFT checks do not use the topology (events carry their own group
    and ``f``), so an empty topology still monitors bare PBFT groups.
    """

    def __init__(self, zones: dict[str, dict] | None = None,
                 clusters: dict[str, list] | None = None,
                 execution: str | None = None) -> None:
        self.zones = {}
        for zid, z in (zones or {}).items():
            zone = {"members": list(z["members"]), "f": int(z["f"]),
                    "cluster": z.get("cluster", "")}
            if z.get("quorum") is not None:
                zone["quorum"] = int(z["quorum"])
            self.zones[zid] = zone
        self.clusters = {cid: list(zids)
                         for cid, zids in (clusters or {}).items()}
        #: ``"commuting"`` when the deployment's global backend admits
        #: concurrent initiators (see GlobalEngine.commuting_execution);
        #: ``None`` for the default strict-replay discipline, the only
        #: one whose migrations are also checked against an owner chain.
        self.execution = execution

    @classmethod
    def from_deployment(cls, deployment: Any) -> "MonitorTopology":
        """The maps of a built deployment (``Deployment.topology()``)."""
        return cls.from_dict(deployment.topology())

    @classmethod
    def single_group(cls, members, f: int) -> "MonitorTopology":
        """Topology for one bare PBFT group (flat deployments, tests)."""
        zones = {"group": {"members": list(members), "f": int(f),
                           "cluster": "cluster-0"}}
        return cls(zones, {"cluster-0": ["group"]})

    def to_dict(self) -> dict:
        data = {"zones": {zid: dict(z) for zid, z in
                          sorted(self.zones.items())},
                "clusters": {cid: list(zids) for cid, zids in
                             sorted(self.clusters.items())}}
        if self.execution is not None:
            data["execution"] = self.execution
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MonitorTopology":
        return cls(data.get("zones") or {}, data.get("clusters") or {},
                   data.get("execution"))

    # -- lookups (all None-tolerant for unknown zones) -----------------
    def members(self, zone_id: str) -> list | None:
        zone = self.zones.get(zone_id)
        return zone["members"] if zone else None

    def quorum(self, zone_id: str) -> int | None:
        zone = self.zones.get(zone_id)
        if zone is None:
            return None
        declared = zone.get("quorum")
        return declared if declared is not None \
            else intra_zone_quorum(zone["f"])

    def cluster_of(self, zone_id: str) -> str | None:
        zone = self.zones.get(zone_id)
        return zone["cluster"] if zone else None

    def cluster_majority(self, zone_id: str) -> int | None:
        """Majority quorum over the zones of ``zone_id``'s cluster."""
        cluster = self.cluster_of(zone_id)
        zone_ids = self.clusters.get(cluster or "", [])
        return zone_majority(len(zone_ids)) if zone_ids else None


def _ballot_zone(ballot_key: str) -> str:
    """Zone id of a ``seq.zone`` ballot key."""
    _, _, zone = ballot_key.partition(".")
    return zone


class ProtocolMonitor:
    """Invariant checkers fed from :meth:`Instrumentation.emit`.

    One instance serves both tiers: attached to a live bus it checks
    online (and re-emits violations as ``monitor.violation`` trace
    events); constructed standalone it replays an exported trace via
    :func:`repro.obs.report.audit_trace`.
    """

    def __init__(self, topology: MonitorTopology | None = None,
                 config: MonitorConfig | None = None,
                 bus: Any = None) -> None:
        self.topology = topology or MonitorTopology()
        self.config = config or MonitorConfig()
        self.bus = bus
        self.violations: list[Violation] = []
        self.checked: Counter = Counter()
        self.end_ts: float | None = None
        self._seen: set = set()
        # PBFT agreement state: (group, view, seq) -> digest -> sender.
        self._pp_digests: dict[tuple, dict[str, str]] = {}
        self._commit_digests: dict[tuple, dict[str, str]] = {}
        # Endorsement equivocation: (members, instance, view) -> digests.
        self._endorse_digests: dict[tuple, dict[str, str]] = {}
        # Data-sync state, keyed by ballot key "seq.zone".
        self._sync_stable: dict[str, bool] = {}
        self._sync_promised: dict[str, set] = {}
        self._sync_accepted: dict[str, set] = {}
        self._sync_commit_ok: set = set()
        self._commit_prev: dict[str, str] = {}
        self._executed: dict[str, set] = {}
        # Migration atomicity state: the first outcome per (ballot,
        # client); per (client, request timestamp) the (source, dest,
        # {cluster: ballot}) its applied copies agree on; and, under the
        # chain discipline, each client's owner.
        self._mig_transitions: dict[tuple, tuple] = {}
        self._mig_applied: dict[tuple, tuple] = {}
        self._owner: dict[str, str] = {}
        self._state_digests: dict[tuple, str] = {}
        self._applied_nodes: dict[tuple, set] = {}
        # Certified-read state: group -> highest executed sequence seen.
        self._zone_high: dict[str, int] = {}
        # Liveness watchdog: open item key -> {start, phase, node}.
        self._open: dict[tuple, dict] = {}
        self._finished = False
        self._handlers = {
            "pbft.preprepare": self._on_pbft_preprepare,
            "pbft.commit": self._on_pbft_commit,
            "pbft.execute": self._on_pbft_execute,
            "pbft.catchup": self._on_pbft_catchup,
            "endorse.preprepare": self._on_endorse_preprepare,
            "cert.check": self._on_cert_check,
            "sync.start": self._on_sync_start,
            "sync.promise": self._on_sync_promise,
            "sync.accepted": self._on_sync_accepted,
            "sync.commit": self._on_sync_commit,
            "sync.execute": self._on_sync_execute,
            "read.complete": self._on_read_complete,
            "read.invalid": self._on_read_invalid,
            "migration.executed": self._on_migration_executed,
            "migration.state_sent": self._on_state_sent,
            "migration.applied": self._on_applied,
            "liveness.probe": self._on_probe_arm,
            "liveness.clear": self._on_probe_clear,
        }

    @classmethod
    def attach(cls, obs: Any, deployment: Any = None,
               topology: MonitorTopology | None = None,
               config: MonitorConfig | None = None) -> "ProtocolMonitor":
        """Wire a monitor into a bus (and export its topology)."""
        if topology is None and deployment is not None:
            topology = MonitorTopology.from_deployment(deployment)
        monitor = cls(topology=topology, config=config, bus=obs)
        obs.monitor = monitor
        obs.topology = monitor.topology.to_dict()
        return monitor

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def on_event(self, ts: float, kind: str, node: str,
                 fields: dict) -> None:
        """Dispatch one bus event into the matching checker.

        Kinds outside the canonical registry are flagged rather than
        silently ignored: an unknown kind in a trace means either a
        corrupted/foreign trace or an emitter the registry (and hence the
        checkers) never heard of. Both the online path and ``repro
        audit`` replay go through here, so the verdicts stay identical.
        """
        if not is_known_kind(kind):
            self._flag(round(ts, 6), "unknown-event-kind", node,
                       dedup_key=kind, event_kind=kind)
            return
        handler = self._handlers.get(kind)
        if handler is not None:
            # Round exactly like the JSONL exporter so offline replay
            # reproduces identical violation timestamps.
            handler(round(ts, 6), node, fields)

    def finish(self, end_ts: float) -> None:
        """Close the run: flag progress items stalled past the timeout."""
        if self._finished:
            return
        self._finished = True
        self.end_ts = round(end_ts, 6)
        for key in list(self._open):
            item = self._open[key]
            age = self.end_ts - item["start"]
            if age >= self.config.stall_timeout_ms:
                self._flag(self.end_ts, "stall", item["node"],
                           dedup_key=key,
                           item="/".join(str(part) for part in key),
                           phase=item["phase"], age_ms=round(age, 6))

    # ------------------------------------------------------------------
    # Violation plumbing
    # ------------------------------------------------------------------
    def _flag(self, ts: float, kind: str, culprit: str,
              dedup_key: Any = None, **detail: Any) -> None:
        if dedup_key is not None:
            seen_key = (kind, dedup_key)
            if seen_key in self._seen:
                return
            self._seen.add(seen_key)
        if len(self.violations) >= _MAX_VIOLATIONS:
            return
        violation = Violation(ts=ts, kind=kind, culprit=culprit,
                              detail=detail)
        self.violations.append(violation)
        if self.bus is not None:
            self.bus.emit(ts, "monitor.violation", node=culprit,
                          violation=kind, **detail)

    @property
    def clean(self) -> bool:
        return not self.violations

    def assert_clean(self) -> None:
        """Raise AssertionError listing every violation (test tier)."""
        if self.violations:
            lines = [f"  {v.ts:.3f}ms {v.kind} culprit={v.culprit} "
                     f"{v.detail}" for v in self.violations[:20]]
            more = len(self.violations) - len(lines)
            if more > 0:
                lines.append(f"  ... and {more} more")
            raise AssertionError(
                f"protocol monitor flagged {len(self.violations)} "
                "violation(s):\n" + "\n".join(lines))

    # ------------------------------------------------------------------
    # (1) PBFT agreement
    # ------------------------------------------------------------------
    def _on_pbft_preprepare(self, ts: float, node: str, f: dict) -> None:
        self.checked["pbft.preprepare"] += 1
        key = (f["group"], f["view"], f["sequence"])
        digests = self._pp_digests.setdefault(key, {})
        digests.setdefault(f["digest"], f["sender"])
        if len(digests) > 1:
            self._flag(ts, "pbft-equivocation", f["sender"],
                       dedup_key=(key, f["digest"]), view=f["view"],
                       sequence=f["sequence"], digests=sorted(digests))

    def _on_pbft_commit(self, ts: float, node: str, f: dict) -> None:
        self.checked["pbft.commit"] += 1
        members = f["group"].split(",")
        # A non-default backend stamps its certificate quorum on the
        # event; otherwise the canonical 3f+1 sizing applies.
        quorum = f.get("quorum") or intra_zone_quorum(f["f"])
        signers = f["signers"]
        distinct = set(signers)
        reason = ""
        if len(signers) != len(distinct):
            reason = "duplicate-signers"
        elif not distinct <= set(members):
            reason = "foreign-signer"
        elif len(distinct) < quorum:
            reason = "undersized"
        if reason:
            self._flag(ts, "pbft-bad-quorum", node,
                       dedup_key=(f["group"], f["view"], f["sequence"],
                                  node),
                       reason=reason, view=f["view"],
                       sequence=f["sequence"], signers=sorted(signers),
                       required=quorum)
        key = (f["group"], f["view"], f["sequence"])
        digests = self._commit_digests.setdefault(key, {})
        digests.setdefault(f["digest"], node)
        if len(digests) > 1:
            self._flag(ts, "pbft-divergence", node,
                       dedup_key=(key, f["digest"]), view=f["view"],
                       sequence=f["sequence"], digests=sorted(digests))
        self._open.setdefault(("pbft", f["group"], f["sequence"], node),
                              {"start": ts, "phase": "pbft-execute",
                               "node": node})

    def _on_pbft_execute(self, ts: float, node: str, f: dict) -> None:
        self.checked["pbft.execute"] += 1
        group = f.get("group")
        if group is None:
            return
        sequence = f["sequence"]
        # Commit high-water per group, consulted by the certified-read
        # checker: an honest read can never cite a watermark sequence
        # above what some replica actually executed.
        if sequence > self._zone_high.get(group, -1):
            self._zone_high[group] = sequence
        # PBFT execution is in-order: executing ``sequence`` means every
        # earlier committed slot on this node was applied (or skipped via
        # a stable checkpoint after recovery), so clear lower-sequence
        # watchdog items too — a recovered node must not read as stalled
        # on slots the checkpoint transfer superseded.
        stale = [key for key in self._open
                 if key[0] == "pbft" and key[1] == group
                 and key[3] == node and key[2] <= sequence]
        for key in stale:
            del self._open[key]

    def _on_pbft_catchup(self, ts: float, node: str, f: dict) -> None:
        """Checkpoint state transfer: the node adopted a stable snapshot,
        superseding every committed-but-unexecuted slot at or below it."""
        self.checked["pbft.catchup"] += 1
        group = f.get("group")
        if group is None:
            return
        sequence = f["sequence"]
        stale = [key for key in self._open
                 if key[0] == "pbft" and key[1] == group
                 and key[3] == node and key[2] <= sequence]
        for key in stale:
            del self._open[key]

    def _on_endorse_preprepare(self, ts: float, node: str,
                               f: dict) -> None:
        self.checked["endorse.preprepare"] += 1
        key = (f["members"], f["instance"], f["view"])
        digests = self._endorse_digests.setdefault(key, {})
        digests.setdefault(f["digest"], f["sender"])
        if len(digests) > 1:
            self._flag(ts, "endorse-equivocation", f["sender"],
                       dedup_key=(key, f["digest"]),
                       instance=f["instance"], digests=sorted(digests))

    # ------------------------------------------------------------------
    # (2) Certificate validity
    # ------------------------------------------------------------------
    def _on_cert_check(self, ts: float, node: str, f: dict) -> None:
        self.checked["cert.check"] += 1
        zone = f["zone"]
        members = self.topology.members(zone)
        quorum = self.topology.quorum(zone)
        signers = f.get("signers") or []
        reason = ""
        if members is not None and quorum is not None:
            distinct = set(signers)
            if "threshold" in f:
                # The threshold is the sender's, passed through as it came:
                # one that is no ``int`` is left to the verdict below.
                if distinct != set(members):
                    reason = "threshold-group-mismatch"
                elif type(f["threshold"]) is int and f["threshold"] < quorum:
                    reason = "threshold-below-quorum"
            elif len(signers) != len(distinct):
                reason = "duplicate-signers"
            elif not distinct <= set(members):
                reason = "foreign-signers"
            elif len(distinct) < quorum:
                reason = "undersized"
        if not f["valid"]:
            reason = reason or "signature-invalid"
        if reason:
            culprit = f.get("src") or node
            self._flag(ts, "cert-invalid", culprit,
                       dedup_key=(f["msg"], zone, culprit, f.get("ref"),
                                  reason),
                       msg=f["msg"], zone=zone, ref=f.get("ref", ""),
                       reason=reason, signers=sorted(signers),
                       observed_by=node)

    # ------------------------------------------------------------------
    # (2b) Certified reads (repro.reads)
    # ------------------------------------------------------------------
    def _on_read_complete(self, ts: float, node: str, f: dict) -> None:
        """A completed fast-path read must respect the staleness bound
        the client declared, and can never cite a watermark sequence
        beyond what the zone actually executed (a fabricated-future
        certificate that somehow passed the client's checks)."""
        self.checked["read.complete"] += 1
        if f["age_ms"] > f["bound_ms"]:
            self._flag(ts, "read-stale-violation", node,
                       dedup_key=(node, f["zone"], f["sequence"]),
                       zone=f["zone"], sequence=f["sequence"],
                       age_ms=f["age_ms"], bound_ms=f["bound_ms"])
        members = self.topology.members(f["zone"])
        if members is None:
            return
        group = ",".join(members)
        high = self._zone_high.get(group, -1)
        if f["sequence"] > high:
            self._flag(ts, "read-ahead-of-execution", node,
                       dedup_key=(node, f["zone"], f["sequence"]),
                       zone=f["zone"], sequence=f["sequence"],
                       executed_high=high)

    def _on_read_invalid(self, ts: float, node: str, f: dict) -> None:
        """A read reply whose certificate does not bind its claims is
        provable misbehaviour by the replica that signed and sent it —
        the client's evidence lands the sender in the culpability
        table."""
        self.checked["read.invalid"] += 1
        self._flag(ts, "read-fabrication", f["sender"],
                   dedup_key=(f["sender"], f["reason"]),
                   zone=f["zone"], reason=f["reason"], observed_by=node)

    # ------------------------------------------------------------------
    # (3) Data-sync quorum
    # ------------------------------------------------------------------
    def _on_sync_start(self, ts: float, node: str, f: dict) -> None:
        self.checked["sync.start"] += 1
        ballot = f["ballot"]
        self._sync_stable.setdefault(ballot, bool(f.get("stable", False)))
        self._open.setdefault(("sync", ballot),
                              {"start": ts, "phase": "start",
                               "node": node})

    def _on_sync_promise(self, ts: float, node: str, f: dict) -> None:
        self.checked["sync.promise"] += 1
        self._sync_promised.setdefault(f["ballot"], set()).add(f["zone"])
        item = self._open.get(("sync", f["ballot"]))
        if item is not None:
            item["phase"] = "promise"

    def _on_sync_accepted(self, ts: float, node: str, f: dict) -> None:
        self.checked["sync.accepted"] += 1
        ballot = f["ballot"]
        self._sync_accepted.setdefault(ballot, set()).add(f["zone"])
        item = self._open.get(("sync", ballot))
        if item is not None:
            item["phase"] = "accepted"
        # Leaderless mode: an accept must follow a majority of promises.
        if self._sync_stable.get(ballot) is False:
            zone = _ballot_zone(ballot)
            majority = self.topology.cluster_majority(zone)
            promised = set(self._sync_promised.get(ballot, set()))
            promised.add(zone)
            if majority is not None and len(promised) < majority:
                self._flag(ts, "sync-premature-accept", node,
                           dedup_key=ballot, ballot=ballot,
                           promised=sorted(promised), required=majority)

    def _on_sync_commit(self, ts: float, node: str, f: dict) -> None:
        self.checked["sync.commit"] += 1
        ballot = f["ballot"]
        if "prev" in f:
            self._commit_prev.setdefault(ballot, f["prev"])
        item = self._open.get(("sync", ballot))
        if item is not None:
            item["phase"] = "commit"
        if ballot in self._sync_commit_ok:
            return
        zone = _ballot_zone(ballot)
        majority = self.topology.cluster_majority(zone)
        accepted = set(self._sync_accepted.get(ballot, set()))
        accepted.add(zone)  # the initiator zone accepts implicitly
        if majority is not None and len(accepted) < majority:
            self._flag(ts, "sync-quorum", node, dedup_key=ballot,
                       ballot=ballot, accepted=sorted(accepted),
                       required=majority)
        else:
            self._sync_commit_ok.add(ballot)

    def _on_sync_execute(self, ts: float, node: str, f: dict) -> None:
        self.checked["sync.execute"] += 1
        ballot = f["ballot"]
        executed = self._executed.setdefault(node, set())
        if ballot in executed:
            self._flag(ts, "sync-duplicate-execute", node,
                       dedup_key=(node, ballot), ballot=ballot)
        else:
            prev = self._commit_prev.get(ballot, "")
            if prev and prev not in executed:
                self._flag(ts, "sync-order", node,
                           dedup_key=(node, ballot), ballot=ballot,
                           prev=prev)
            executed.add(ballot)
        self._open.pop(("sync", ballot), None)

    # ------------------------------------------------------------------
    # (4) Migration atomicity
    # ------------------------------------------------------------------
    def _on_migration_executed(self, ts: float, node: str,
                               f: dict) -> None:
        """Migration atomicity, judged on the request's certified claim.

        Every node executing a request under one ballot must reach the
        same outcome (``migration-divergence``). A request applied is one
        record per (client, request timestamp), whatever order its copies
        arrive in: each copy must make the same move
        (``migration-dest-divergence``), and each cluster applies it
        under one ballot only (``migration-duplicate``) — a cross-cluster
        move applies once per cluster. A ``superseded`` skip (commuting
        execution only) is the discipline working, not an outcome.
        """
        self.checked["migration.executed"] += 1
        if f.get("reason") == "superseded":
            return
        key = (f["ballot"], f["client"])
        transition = (f["source"], f["dest"], bool(f["accepted"]))
        first = self._mig_transitions.get(key)
        if first is None:
            self._mig_transitions[key] = transition
            self._in_flight(ts, node, f)
            if transition[2]:
                self._record_apply(ts, node, f)
        elif first != transition:
            # Nodes disagreeing on a deterministic execution outcome.
            self._flag(ts, "migration-divergence", node,
                       dedup_key=(key, transition), ballot=f["ballot"],
                       client=f["client"], got=list(transition),
                       first=list(first))

    def _in_flight(self, ts: float, node: str, f: dict) -> None:
        """The first execution of a migration under a ballot: accepted,
        under the ballot its STATE ships under (the source cluster's, for
        a cross-cluster move) and not yet applied, it is in flight until
        its first copy is applied. A STATE a source zone shipped when it
        accepted a ballot that never commits, or for a member the
        destination rejects, is no migration anybody waits for."""
        key = (f["ballot"], f["client"])
        if f["accepted"] and key not in self._applied_nodes and \
                self.topology.cluster_of(_ballot_zone(f["ballot"])) \
                == self.topology.cluster_of(f["source"]):
            self._open[("migration",) + key] = {
                "start": ts, "phase": "state-copy", "node": node}

    def _record_apply(self, ts: float, node: str, f: dict) -> None:
        client, ballot = f["client"], f["ballot"]
        ident = (client, f["req_ts"])
        move = (f["source"], f["dest"])
        record = self._mig_applied.get(ident)
        if record is None:
            record = self._mig_applied[ident] = move + ({},)
            if self.topology.execution != "commuting":
                # Chain discipline: moves apply in one order everywhere,
                # so a request's first copy must move the client from
                # where its previous move left it. Commuting execution
                # reorders moves by design and converges them instead.
                owner = self._owner.get(client)
                if owner is not None and owner != f["source"]:
                    self._flag(ts, "ownership-fork", node, dedup_key=ident,
                               client=client, req_ts=f["req_ts"],
                               owner=owner, claimed_source=f["source"],
                               dest=f["dest"])
                self._owner[client] = f["dest"]
        elif record[:2] != move:
            self._flag(ts, "migration-dest-divergence", node,
                       dedup_key=(ident, ballot), client=client,
                       req_ts=f["req_ts"], got=list(move),
                       expected=list(record[:2]))
            return
        cluster = self.topology.cluster_of(_ballot_zone(ballot))
        first_ballot = record[2].setdefault(cluster, ballot)
        if first_ballot != ballot:
            # A retransmitted request certified under a second ballot
            # must be skipped, not applied again.
            self._flag(ts, "migration-duplicate", node,
                       dedup_key=(ident, ballot), client=client,
                       req_ts=f["req_ts"], ballot=ballot,
                       first_ballot=first_ballot)

    def _on_state_sent(self, ts: float, node: str, f: dict) -> None:
        self.checked["migration.state"] += 1
        key = (f["ballot"], f["client"])
        prior = self._state_digests.setdefault(key, f["records_digest"])
        if prior != f["records_digest"]:
            self._flag(ts, "migration-integrity", node,
                       dedup_key=(key, f["records_digest"]),
                       client=f["client"], ballot=f["ballot"],
                       reason="divergent-state-sent")

    def _on_applied(self, ts: float, node: str, f: dict) -> None:
        self.checked["migration.applied"] += 1
        key = (f["ballot"], f["client"])
        sent = self._state_digests.get(key)
        if sent is not None and sent != f["records_digest"]:
            self._flag(ts, "migration-integrity", node,
                       dedup_key=(key, node, f["records_digest"]),
                       client=f["client"], ballot=f["ballot"],
                       reason="applied-digest-mismatch")
        applied = self._applied_nodes.setdefault(key, set())
        if node in applied:
            self._flag(ts, "migration-duplicate-apply", node,
                       dedup_key=(key, node), client=f["client"],
                       ballot=f["ballot"])
        applied.add(node)
        self._open.pop(("migration", f["ballot"], f["client"]), None)

    # ------------------------------------------------------------------
    # (5b) Liveness probes (chaos engine / external harnesses)
    # ------------------------------------------------------------------
    def _on_probe_arm(self, ts: float, node: str, f: dict) -> None:
        """Arm a progress probe: something must clear it before the
        stall timeout or the watchdog flags a liveness failure. The
        chaos runner arms one per fault injection and clears it when a
        request submitted after the fault completes."""
        self.checked["liveness.probe"] += 1
        self._open.setdefault(("probe", f["probe"]),
                              {"start": ts,
                               "phase": f.get("phase", "liveness"),
                               "node": node})

    def _on_probe_clear(self, ts: float, node: str, f: dict) -> None:
        self.checked["liveness.clear"] += 1
        self._open.pop(("probe", f["probe"]), None)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stalls(self) -> list[Violation]:
        """The liveness-watchdog subset of the violations."""
        return [v for v in self.violations if v.kind == "stall"]

    @property
    def live(self) -> bool:
        """Whether the watchdog flagged no stalls (safety aside)."""
        return not self.stalls()

    def culpability(self) -> dict[str, dict[str, int]]:
        """Per-node violation counts by kind (the forensic table)."""
        table: dict[str, Counter] = {}
        for violation in self.violations:
            table.setdefault(violation.culprit,
                             Counter())[violation.kind] += 1
        return {node: dict(sorted(kinds.items()))
                for node, kinds in sorted(table.items())}

    def report(self) -> dict:
        """Structured forensic report (see ``repro.obs.report``)."""
        return {
            "format": "repro-forensic-report",
            "version": 1,
            "verdict": "CLEAN" if self.clean else "VIOLATIONS",
            "end_ms": self.end_ts,
            "checks": dict(sorted(self.checked.items())),
            "violation_count": len(self.violations),
            "violations": [v.as_dict() for v in self.violations],
            "culpability": self.culpability(),
        }

    def report_json(self) -> str:
        """Canonical JSON encoding (byte-stable across online/offline)."""
        return canonical_json(self.report())
