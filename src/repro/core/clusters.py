"""Cross-cluster data synchronization (paper §VI).

Zone clusters partition zones into regions with *regional* system
meta-data, so intra-cluster migrations synchronize only the cluster's own
zones. A migration whose source and destination zones live in different
clusters runs this protocol:

1. The destination zone (the coordinator) orders the request in its own
   cluster (Algorithm 1, with the commit phase *held*), and once its zone
   certifies the ballot its ``f+1`` *proxy nodes* send CROSS-PROPOSE to
   the source zone. Proxies — not just the primary — carry cross-cluster
   traffic so one Byzantine primary cannot silently stall the peer cluster.
2. The source zone orders the request in the source cluster under its own
   ballot (each cluster keeps its own meta-data ordering), also holding
   its commit. When its commit certificate is ready, source-zone proxies
   send PREPARED to the destination zone.
3. The destination primary, holding both commit certificates, multicasts
   CROSS-COMMIT to every node of both clusters. Each node validates the
   half belonging to its cluster and executes it on the regional
   meta-data; the data migration protocol then moves R(c) as usual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.crypto.digest import digest
from repro.messages.base import Signed, verify_signed
from repro.messages.client import MigrationRequest
from repro.messages.cluster import CrossCommit, CrossPropose, Prepared
from repro.messages.sync import (Ballot, GlobalCommit, accept_body,
                                 commit_body)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import ZiziphusNode

__all__ = ["ClusterEngine"]


@dataclass
class CrossTxn:
    """Cross-cluster transaction state on one node."""

    request_env: Signed
    dst_ballot: Ballot | None = None
    dst_prev: Ballot | None = None
    src_ballot: Ballot | None = None
    src_prev: Ballot | None = None
    cert_dst: Any = None
    prepared: Prepared | None = None
    role: str = ""                      # "dst" | "src"
    sent_cross_propose: bool = False
    sent_prepared: bool = False
    finalized: bool = False


class ClusterEngine:
    """Runs the cross-cluster protocol for one node."""

    def __init__(self, node: "ZiziphusNode") -> None:
        self.node = node
        self.directory = node.directory
        self.my_zone = node.zone_info
        self.my_cluster = self.my_zone.cluster_id
        self._txns: dict[bytes, CrossTxn] = {}       # request digest -> state

        node.register_handler(MigrationRequest, self._route_migration)
        node.register_handler(CrossPropose, self._on_cross_propose)
        node.register_handler(Prepared, self._on_prepared)
        node.register_handler(CrossCommit, self._on_cross_commit)
        node.endorsement.register_kind("gsync-accept",
                                       on_quorum=self._on_accept_endorsed)
        node.endorsement.register_kind("gsync-commit",
                                       on_quorum=self._on_commit_endorsed)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _is_cross(self, request: MigrationRequest) -> bool:
        return (self.directory.cluster_of_zone(request.source_zone)
                != self.directory.cluster_of_zone(request.dest_zone))

    @staticmethod
    def _body_digest(request: MigrationRequest) -> bytes:
        """Digest the sync engine certifies: the batch-of-one payloads."""
        return digest((request,))

    def _orderer_zone(self, cluster_of_zone: str) -> str:
        """The zone that orders a cross-cluster txn inside one cluster.

        Under the stable-leader optimisation every global transaction of a
        cluster is ordered by the cluster's leader zone — including the
        per-cluster halves of cross-cluster transactions, so the leader's
        ballot chain stays collision-free. In leaderless mode the paper's
        §VI roles apply directly (destination / source zones initiate).
        """
        if self.node.sync.config.stable_leader:
            cluster = self.directory.cluster_of_zone(cluster_of_zone)
            return self.directory.cluster_zones(cluster)[0]
        return cluster_of_zone

    def _txn_for(self, request_digest: bytes, env: Signed) -> CrossTxn:
        txn = self._txns.get(request_digest)
        if txn is None:
            txn = CrossTxn(request_env=env)
            self._txns[request_digest] = txn  # lint: allow[taint-flow] admission point for client work: per-request coordinator state keyed by the request's own digest, deduplicated above
        return txn

    def _am_proxy(self) -> bool:
        view = self.node.replica.view
        return self.node.node_id in self.my_zone.proxies(view)

    def _proxied_request(self, context: Any) -> Signed | None:
        """The request of an endorsed sync context that orders exactly one
        cross-cluster migration, if this node is one of its zone's
        proxies; ``None`` for every other ballot and node."""
        batch = getattr(context, "requests", None)
        if not batch or len(batch) != 1:
            return None  # cross-cluster transactions are ordered one per ballot
        request = batch[0].payload
        if not isinstance(request, MigrationRequest) or \
                not self._is_cross(request) or not self._am_proxy():
            return None
        return batch[0]

    @staticmethod
    def _span_key(request_digest: bytes) -> str:
        return request_digest.hex()[:16]

    # ------------------------------------------------------------------
    # Request routing (intra-cluster requests go to the sync engine)
    # ------------------------------------------------------------------
    def _route_migration(self, sender: str, request: MigrationRequest,
                         envelope: Signed) -> None:
        if not self._is_cross(request):
            self.node.sync._on_migration_request(sender, request, envelope)
            return
        if self.my_zone.zone_id != self._orderer_zone(request.dest_zone):
            return  # not the coordinator zone for this request
        if not self.node.replica.is_primary:
            self.node.forward(self.node.replica.primary, envelope)
            return
        request_digest = digest(request)
        txn = self._txn_for(request_digest, envelope)
        if txn.dst_ballot is not None:
            return  # already coordinating this request
        txn.role = "dst"
        obs = self.node.obs
        obs.count("cross.coordinated")
        obs.span_open(self.node.sim.now, "cross-cluster",
                      self._span_key(request_digest),
                      node=self.node.node_id,
                      source=request.source_zone,
                      dest=request.dest_zone)
        txn.dst_ballot = self.node.sync.start_global_txn(
            (envelope,), on_ready_to_commit=lambda s, d=request_digest:
            self._on_dst_accepted_quorum(d, s))

    # ------------------------------------------------------------------
    # Destination side
    # ------------------------------------------------------------------
    def _on_accept_endorsed(self, instance: str, context: Any, cert) -> None:
        """The destination zone certified its ballot: proxies CROSS-PROPOSE."""
        request_env = self._proxied_request(context)
        if request_env is None:
            return
        request = request_env.payload
        if self.my_zone.zone_id != self._orderer_zone(request.dest_zone):
            return
        request_digest = digest(request)
        txn = self._txn_for(request_digest, request_env)
        if txn.sent_cross_propose:
            return
        txn.sent_cross_propose = True
        txn.role = txn.role or "dst"
        txn.dst_ballot = context.ballot
        txn.dst_prev = context.prev_ballot
        self.node.obs.emit(self.node.sim.now, "cross.propose_sent",
                           node=self.node.node_id,
                           request=self._span_key(request_digest))
        cross = CrossPropose(view=self.node.replica.view,
                             dst_ballot=context.ballot,
                             dst_prev_ballot=context.prev_ballot,
                             request=request_env, cert=cert,
                             sender=self.node.node_id)
        source_zone = self._orderer_zone(request.source_zone)
        self.node.multicast_signed(self.directory.zone(source_zone).members,
                                   cross)

    def _on_dst_accepted_quorum(self, request_digest: bytes, sync_txn) -> None:
        """Destination cluster accepted; build our commit certificate."""
        txn = self._txns.get(request_digest)
        if txn is None:
            return
        txn.dst_prev = sync_txn.prev_ballot
        self.node.sync.prepare_commit_cert(
            sync_txn, on_cert=lambda cert, d=request_digest:
            self._on_dst_commit_cert(d, cert))

    def _on_dst_commit_cert(self, request_digest: bytes, cert) -> None:
        txn = self._txns.get(request_digest)
        if txn is None:
            return
        txn.cert_dst = cert
        self._try_finalize(txn)

    def _on_prepared(self, sender: str, prepared: Prepared,
                     envelope: Signed) -> None:
        request_digest = prepared.request_digest
        txn = self._txns.get(request_digest)
        if txn is None or txn.role != "dst":
            return
        request = txn.request_env.payload
        src_zone = self._orderer_zone(request.source_zone)
        body = commit_body(prepared.src_ballot, prepared.src_prev_ballot,
                           self._body_digest(request))
        if not self.node.check_cert("cross-prepared", src_zone, prepared.cert,
                                    body, sender, prepared.src_ballot.key):
            return
        txn.prepared = prepared
        txn.src_ballot = prepared.src_ballot
        txn.src_prev = prepared.src_prev_ballot
        if self.node.replica.is_primary:
            self._try_finalize(txn)

    def _try_finalize(self, txn: CrossTxn) -> None:
        if txn.finalized or txn.cert_dst is None or txn.prepared is None:
            return
        if not self.node.replica.is_primary:
            return
        txn.finalized = True
        self.node.obs.emit(self.node.sim.now, "cross.commit_sent",
                           node=self.node.node_id,
                           dst_ballot=txn.dst_ballot.key,
                           src_ballot=txn.src_ballot.key)
        commit = CrossCommit(view=self.node.replica.view,
                             dst_ballot=txn.dst_ballot,
                             dst_prev_ballot=txn.dst_prev,
                             src_ballot=txn.src_ballot,
                             src_prev_ballot=txn.src_prev,
                             request=txn.request_env,
                             cert_dst=txn.cert_dst,
                             cert_src=txn.prepared.cert,
                             sender=self.node.node_id)
        dst_cluster = self.directory.cluster_of_zone(txn.dst_ballot.zone_id)
        src_cluster = self.directory.cluster_of_zone(txn.src_ballot.zone_id)
        targets = self.directory.nodes_of_zones(
            self.directory.cluster_zones(dst_cluster)
            + self.directory.cluster_zones(src_cluster))
        self.node.multicast_signed(targets, commit, include_self=True)

    # ------------------------------------------------------------------
    # Source side
    # ------------------------------------------------------------------
    def _on_cross_propose(self, sender: str, cross: CrossPropose,
                          envelope: Signed) -> None:
        request = cross.request.payload
        if not isinstance(request, MigrationRequest):
            return
        if self.my_zone.zone_id != self._orderer_zone(request.source_zone):
            return
        if not verify_signed(self.node.keys, cross.request):
            return
        body = accept_body(cross.dst_ballot, cross.dst_prev_ballot,
                           self._body_digest(request))
        dst_zone = self._orderer_zone(request.dest_zone)
        if not self.node.check_cert("cross-propose", dst_zone, cross.cert,
                                    body, sender, cross.dst_ballot.key):
            return
        request_digest = digest(request)
        txn = self._txn_for(request_digest, cross.request)
        txn.role = "src"
        txn.dst_ballot = cross.dst_ballot
        txn.dst_prev = cross.dst_prev_ballot
        if txn.src_ballot is not None:
            return  # already ordering this request in our cluster
        if not self.node.replica.is_primary:
            return  # proxies multicast to the whole orderer zone; primary acts
        txn.src_ballot = self.node.sync.start_global_txn(
            (cross.request,), on_ready_to_commit=lambda s, d=request_digest:
            self._on_src_accepted_quorum(d, s))

    def _on_src_accepted_quorum(self, request_digest: bytes, sync_txn) -> None:
        txn = self._txns.get(request_digest)
        if txn is None:
            return
        txn.src_prev = sync_txn.prev_ballot
        txn.src_ballot = sync_txn.ballot
        self.node.sync.prepare_commit_cert(
            sync_txn, on_cert=lambda cert: None)  # proxies act on quorum

    def _on_commit_endorsed(self, instance: str, context: Any, cert) -> None:
        """Commit-phase endorsement done: source proxies send PREPARED."""
        request_env = self._proxied_request(context)
        if request_env is None:
            return
        request = request_env.payload
        if self.my_zone.zone_id != self._orderer_zone(request.source_zone):
            return
        request_digest = digest(request)
        txn = self._txn_for(request_digest, request_env)
        if txn.sent_prepared:
            return
        txn.sent_prepared = True
        txn.src_ballot = context.ballot
        txn.src_prev = context.prev_ballot
        self.node.obs.emit(self.node.sim.now, "cross.prepared_sent",
                           node=self.node.node_id,
                           request=self._span_key(request_digest))
        prepared = Prepared(view=self.node.replica.view,
                            src_ballot=context.ballot,
                            src_prev_ballot=context.prev_ballot,
                            request_digest=request_digest, cert=cert,
                            sender=self.node.node_id)
        dest_zone = self._orderer_zone(request.dest_zone)
        self.node.multicast_signed(self.directory.zone(dest_zone).members,
                                   prepared)

    # ------------------------------------------------------------------
    # Combined commit (every node of both clusters)
    # ------------------------------------------------------------------
    def _on_cross_commit(self, sender: str, commit: CrossCommit,
                         envelope: Signed) -> None:
        request = commit.request.payload
        if not isinstance(request, MigrationRequest):
            return
        if not verify_signed(self.node.keys, commit.request):
            return
        request_digest = digest(request)
        dst_cluster = self.directory.cluster_of_zone(commit.dst_ballot.zone_id)
        if self.my_cluster == dst_cluster:
            ballot, prev, cert = (commit.dst_ballot, commit.dst_prev_ballot,
                                  commit.cert_dst)
            foreign = commit.src_ballot
        else:
            ballot, prev, cert = (commit.src_ballot, commit.src_prev_ballot,
                                  commit.cert_src)
            foreign = commit.dst_ballot
        body = commit_body(ballot, prev, self._body_digest(request))
        if not self.node.check_cert("cross-commit", ballot.zone_id, cert,
                                    body, sender, ballot.key):
            return
        txn = self._txn_for(request_digest, commit.request)
        txn.dst_ballot, txn.dst_prev = commit.dst_ballot, commit.dst_prev_ballot
        txn.src_ballot, txn.src_prev = commit.src_ballot, commit.src_prev_ballot
        # Cross-cluster STATE messages travel under the source ballot:
        # teach the migration engine the mapping before execution.
        self.node.migration.alias_ballot(foreign, ballot)
        synthetic = GlobalCommit(view=commit.view, ballot=ballot,
                                 prev_ballot=prev, requests=(commit.request,),
                                 cert=cert, checkpoints=(),
                                 sender=commit.sender)
        self.node.sync.ingest_commit(synthetic, envelope)

    # ------------------------------------------------------------------
    # Post-execution (called from the node's execution hook)
    # ------------------------------------------------------------------
    def after_execute(self, ballot: Ballot, request: MigrationRequest,
                      outcome) -> None:
        request_digest = digest(request)
        txn = self._txns.get(request_digest)
        if txn is None or txn.src_ballot is None or txn.dst_ballot is None:
            return
        obs = self.node.obs
        obs.count("cross.executed")
        # Closes on the coordinator primary that opened the span.
        obs.span_close(self.node.sim.now, "cross-cluster",
                       self._span_key(request_digest),
                       node=self.node.node_id)
