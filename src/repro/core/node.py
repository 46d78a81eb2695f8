"""Ziziphus edge node.

A :class:`ZiziphusNode` hosts all the per-node machinery of the paper's
design on one simulated process:

- a PBFT replica for *local* transactions on the zone's client data,
  vetoing requests from clients whose lock bit is FALSE;
- the intra-zone endorsement manager;
- the data synchronization engine (Algorithm 1) scoped to the zones of
  this node's cluster;
- the data migration engine (Algorithm 2);
- optionally, the cross-cluster engine (paper §VI) when the deployment has
  more than one zone cluster;
- the replicated global (or regional) system meta-data plus lock table,
  and the remote-checkpoint store used for lazy synchronization (§V-B).
"""

from __future__ import annotations

from typing import Any

from repro.consensus import BackendSpec, get_backend
from repro.core.endorsement import EndorsementManager
from repro.core.locks import LockTable
from repro.core.metadata import GlobalMetadata, MigrationOutcome, PolicySet
from repro.core.migration_protocol import MigrationConfig, MigrationEngine
from repro.core.sync_protocol import SyncConfig, SyncEngine
from repro.core.zone import ZoneDirectory
from repro.crypto.keys import KeyRegistry
from repro.messages.client import ClientReply, MigrationRequest
from repro.messages.sync import Ballot, CheckpointRef
from repro.pbft.faults import Behavior
from repro.pbft.host import HostNode
from repro.pbft.replica import PBFTConfig, PBFTReplica
from repro.reads import ReadConfig, ReadEngine
from repro.sim.events import Simulator
from repro.sim.network import Network
from repro.sim.process import CostModel
from repro.storage.kvstore import state_root

__all__ = ["ZiziphusNode"]


class ZiziphusNode(HostNode):
    """One edge server participating in a Ziziphus deployment."""

    def __init__(self, sim: Simulator, network: Network, keys: KeyRegistry,
                 node_id: str, directory: ZoneDirectory, app: Any,
                 policies: PolicySet | None = None,
                 pbft_config: PBFTConfig | None = None,
                 sync_config: SyncConfig | None = None,
                 migration_config: MigrationConfig | None = None,
                 cost_model: CostModel | None = None,
                 behavior: Behavior | None = None,
                 use_threshold_signatures: bool = False,
                 backend: BackendSpec | None = None,
                 read_config: ReadConfig | None = None) -> None:
        super().__init__(sim, network, keys, node_id,
                         cost_model=cost_model, behavior=behavior)
        self.directory = directory
        self.zone_info = directory.zone(directory.zone_of(node_id))
        self.app = app
        self.backend = backend or get_backend("default")
        self.metadata = GlobalMetadata(policies)
        self.locks = LockTable()
        self.remote_states: dict[str, CheckpointRef] = {}
        from repro.core.audit import QueryAudit
        self.query_audit = QueryAudit()

        self.replica = PBFTReplica(
            host=self, group=self.zone_info.members,
            profile=self.zone_info.profile, app=app, config=pbft_config,
            accept_request=self._accept_local_request)
        self.endorsement = EndorsementManager(
            host=self, zone=self.zone_info,
            view_provider=lambda: self.replica.view,
            use_threshold=use_threshold_signatures)
        cluster_zone_ids = directory.cluster_zones(self.zone_info.cluster_id)
        self.sync = SyncEngine(self, cluster_zone_ids, sync_config,
                               self.backend.sync)
        self.migration = MigrationEngine(self, migration_config)
        from repro.core.cross_zone import CrossZoneEngine
        self.cross_zone = CrossZoneEngine(self)
        self.replica.reply_fn = self._route_execution_result
        self.reads = ReadEngine(self, read_config)
        if self.reads.enabled:
            # Watermark shares only flow when the read path is on, so a
            # write-only deployment stays byte-identical on the wire.
            self.replica.on_executed = self.reads.on_executed
        self.cluster_engine = None  # attached by the deployment when needed

    # ------------------------------------------------------------------
    # Local transaction gating (the lock bit, §IV.A)
    # ------------------------------------------------------------------
    def _accept_local_request(self, request) -> bool:
        from repro.core.cross_zone import INTERNAL_SENDER_PREFIX
        if request.sender.startswith(INTERNAL_SENDER_PREFIX):
            return True   # zone-internal operations (cross-zone escrow)
        return self.locks.is_current(request.sender)

    def _route_execution_result(self, request_env, result) -> None:
        """Replica reply hook: zone-internal results go to the cross-zone
        engine; everything else is answered to the client as usual."""
        from repro.core.cross_zone import INTERNAL_SENDER_PREFIX
        request = request_env.payload
        if request.sender.startswith(INTERNAL_SENDER_PREFIX):
            self.cross_zone.on_internal_result(request_env, result)
        else:
            self.reply_to_client(request, result)

    # ------------------------------------------------------------------
    # The two ends of every engine's exchange with the outside
    # ------------------------------------------------------------------
    def check_cert(self, kind: str, zone_id: str, cert: Any, body: bytes,
                   src: str, ref: str) -> bool:
        """Receipt check of a certified inter-zone message of ``kind``
        (relayed by ``src``, about ``ref``): is ``cert`` a certificate of
        ``zone_id`` over ``body``? The only emitter of ``cert.check``, so
        the monitor re-derives every engine's verdicts. Validators
        re-checking a certificate nested in an endorsement context call
        ``directory.cert_valid`` themselves: the receipt was booked here.
        """
        valid = self.directory.cert_valid(cert, body, zone_id)
        self.obs.emit_cert(self.sim.now, self.node_id, kind, zone_id, cert,
                           valid, src=src, ref=ref)
        return valid

    def reply_to_client(self, request: Any, result: Any) -> None:
        """Answer ``request`` (any client request message) with ``result``."""
        reply = ClientReply(view=self.replica.view,
                            timestamp=request.timestamp,
                            client_id=request.sender, result=result,
                            sender=self.node_id)
        self.send_signed(request.sender, reply)

    # ------------------------------------------------------------------
    # Hooks from the protocol engines
    # ------------------------------------------------------------------
    def on_global_executed(self, ballot: Ballot, request: MigrationRequest,
                           outcome: MigrationOutcome) -> None:
        """Called once per executed global transaction, on every node."""
        if self.cluster_engine is not None:
            self.cluster_engine.after_execute(ballot, request, outcome)
        if outcome.accepted:
            if self.zone_info.zone_id == request.source_zone:
                # Backstop for nodes that missed the earlier phases: the
                # client migrated away, its data here is stale.
                self.locks.mark_stale(request.sender)
        elif self.zone_info.zone_id == request.source_zone:
            # The migration was rejected by policy: the client stays; its
            # data here is authoritative again.
            self.locks.mark_current(request.sender)

    def store_remote_checkpoint(self, ref: CheckpointRef) -> None:
        """Lazy synchronization (§V-B): keep other zones' newest stable
        checkpoints so their data survives a whole-zone failure."""
        if ref.zone_id == self.zone_info.zone_id:
            return
        # Refs piggyback on ACCEPTED/COMMIT messages but are *not* bound
        # by those certificates, so verify the snapshot against its own
        # root before adoption: a Byzantine relay must not be able to
        # displace a zone's genuine checkpoint with fabricated state.
        if state_root(ref.snapshot) != ref.state_digest:
            return
        current = self.remote_states.get(ref.zone_id)
        if current is None or ref.sequence > current.sequence:
            self.remote_states[ref.zone_id] = ref
