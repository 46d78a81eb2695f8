"""Two-level PBFT baseline.

Like Ziziphus, zones run PBFT locally for local transactions — but global
transactions are ordered by *PBFT* (not a Paxos-style majority protocol)
among zone representatives. Because the top level is Byzantine
fault-tolerant, it needs ``3F+1`` participants to tolerate ``F`` zone
failures, while Ziziphus needs only ``2F+1`` zones: per §VII, with ``Z =
2F+1`` real zones the remaining ``F`` participants are extra nodes placed
in the CA data center that join global consensus only (they process no
local transactions).

Implementation notes (documented simplifications, cf. DESIGN.md):

- top-level PBFT messages travel wrapped in :class:`GlobalMsg` so one host
  can run both a local and a global replica;
- zone representatives relay globally-committed decisions into their zones
  (ZONE-APPLY) and ship migrated client records (RECORD-SHIP) point to
  point without the certificate machinery Ziziphus uses — this *favours*
  the baseline, and Ziziphus still outperforms it;
- view changes inside the top-level group are not exercised (the paper's
  experiments fail zone backups, never global representatives).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.app.base import StateMachine
from repro.consensus.profile import pbft_profile
from repro.core.deployment import (Deployment, DeploymentConfig,
                                   config_or_overrides)
from repro.core.endorsement import EndorsementManager
from repro.core.locks import LockTable
from repro.core.metadata import GlobalMetadata, PolicySet
from repro.core.zone import ZoneDirectory
from repro.crypto.digest import digest
from repro.crypto.keys import KeyRegistry
from repro.errors import ConfigurationError
from repro.messages.base import Signed, verify_signed
from repro.messages.client import ClientReply, MigrationRequest
from repro.pbft.faults import Behavior
from repro.pbft.host import HostNode
from repro.pbft.replica import PBFTConfig, PBFTReplica
from repro.quorums import two_level_big_f
from repro.sim.events import Simulator
from repro.sim.latency import regions_for_zones
from repro.sim.network import Network
from repro.sim.process import CostModel

__all__ = ["TwoLevelConfig", "TwoLevelDeployment", "build_two_level"]


# ----------------------------------------------------------------------
# Wire messages specific to this baseline
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GlobalMsg:
    """Envelope payload namespacing top-level PBFT traffic.

    ``cert`` carries the 2f+1 intra-zone endorsement of the inner message:
    per the paper, a representative's top-level messages must be endorsed
    by its zone so a Byzantine rep cannot equivocate at the top level.
    Messages from the extra (zone-less) CA participants carry no cert.
    """

    inner: Any
    cert: Any = None

    @property
    def sender(self):
        """Expose the inner sender so envelope verification still binds
        the signature to the originating identity."""
        return getattr(self.inner, "sender", None)


@dataclass(frozen=True)
class ZoneApply:
    """Representative -> zone: apply a globally committed transaction."""

    request: Signed
    sender: str


@dataclass(frozen=True)
class RecordShip:
    """Source rep -> destination zone: the migrating client's records."""

    client_id: str
    records: dict[str, Any] = field(compare=False, metadata={"digest": False})
    records_digest: bytes = b""
    request: Signed | None = None
    sender: str = ""


class _MetadataApp(StateMachine):
    """State machine the top-level PBFT replicates (meta-data only)."""

    def __init__(self, policies: PolicySet | None) -> None:
        self.metadata = GlobalMetadata(policies)

    def execute(self, operation: tuple, client_id: str) -> Any:
        if operation and operation[0] == "migrate":
            _, client, src, dst = operation
            return self.metadata.apply_migration(client, src, dst).as_result()
        return ("err", "unknown-op")

    def snapshot(self) -> dict[str, Any]:
        return self.metadata.snapshot()

    def restore(self, snapshot: dict[str, Any]) -> None:
        self.metadata.restore(snapshot)

    def state_digest(self) -> bytes:
        return self.metadata.state_digest()


class _GlobalHost:
    """Adapter presenting the top-level group to a PBFTReplica.

    Wraps every outbound payload in :class:`GlobalMsg`; the owning node
    unwraps inbound ones and dispatches to the handlers registered here.
    """

    def __init__(self, node: "TwoLevelNode") -> None:
        self._node = node
        self.handlers: dict[type, Callable] = {}
        #: Sends waiting for the endorsement of their payload, by
        #: endorsement instance.
        self._waiting: dict[str, list[Callable[[Any], None]]] = {}

    # -- attributes PBFTReplica reads off its host ---------------------
    @property
    def node_id(self) -> str:
        return self._node.node_id

    @property
    def keys(self) -> KeyRegistry:
        return self._node.keys

    @property
    def sim(self):
        return self._node.sim

    @property
    def cost_model(self) -> CostModel:
        return self._node.cost_model

    @property
    def obs(self):
        return self._node.obs

    # -- host surface ---------------------------------------------------
    def register_handler(self, payload_type: type, handler: Callable) -> None:
        self.handlers[payload_type] = handler

    def _endorsed(self, payload: Any, send: Callable[[Any], None]) -> None:
        """Run the zone endorsement round, then emit with the certificate.

        Extra CA participants have no zone; their messages go out bare.
        """
        node = self._node
        if node.endorsement is None:
            send(None)
            return
        payload_digest = digest(payload)
        instance = f"g2l/{payload_digest.hex()[:20]}"
        # The same payload may go out again before its first endorsement
        # completes (a NEW-VIEW multicast, then re-sent to a member whose
        # VIEW-CHANGE came late): leading the instance again must not
        # drop the send that is waiting for it.
        self._waiting.setdefault(instance, []).append(send)

        def flush(cert: Any) -> None:
            for waiting in self._waiting.pop(instance, ()):
                waiting(cert)

        node.endorsement.lead(instance, payload, payload_digest,
                              use_prepare=False, on_cert=flush)

    def send_signed(self, dst: str, payload: Any) -> None:
        self._endorsed(payload, lambda cert: self._node.send_signed(
            dst, GlobalMsg(payload, cert)))

    def multicast_signed(self, dsts, payload: Any,
                         include_self: bool = False) -> None:
        dsts = list(dsts)
        self._endorsed(payload, lambda cert: self._node.multicast_signed(
            dsts, GlobalMsg(payload, cert), include_self))

    def set_timer(self, delay_ms: float, fn, *args):
        return self._node.set_timer(delay_ms, fn, *args)

    def occupy(self, duration_ms: float) -> None:
        self._node.occupy(duration_ms)

    def forward(self, dst: str, envelope: Signed) -> None:
        # Client-signed requests travel unwrapped; the receiving node's
        # MigrationRequest handler feeds them back into the global replica.
        self._node.forward(dst, envelope)


class TwoLevelNode(HostNode):
    """A node of the two-level PBFT baseline.

    Zone members run the local replica; representatives (and the extra CA
    participants) additionally run the top-level replica.
    """

    def __init__(self, sim: Simulator, network: Network, keys: KeyRegistry,
                 node_id: str, directory: ZoneDirectory | None,
                 zone_id: str | None, global_group: tuple[str, ...],
                 global_f: int, app: Any, policies: PolicySet | None,
                 pbft_config: PBFTConfig, global_pbft_config: PBFTConfig,
                 cost_model: CostModel | None = None,
                 behavior: Behavior | None = None,
                 use_threshold_signatures: bool = False) -> None:
        super().__init__(sim, network, keys, node_id,
                         cost_model=cost_model, behavior=behavior)
        self.directory = directory
        self.zone_id = zone_id
        self.app = app
        self.metadata = GlobalMetadata(policies)
        self.locks = LockTable()
        self.global_group = global_group
        self._applied: set[tuple[str, int]] = set()
        self._pending_records: dict[tuple[str, int], RecordShip] = {}
        self._awaiting_records: dict[str, Signed] = {}

        self.replica: PBFTReplica | None = None
        self.endorsement = None
        if zone_id is not None:
            zone = directory.zone(zone_id)
            self.replica = PBFTReplica(
                host=self, group=zone.members, profile=zone.profile, app=app,
                config=pbft_config,
                accept_request=lambda req: self.locks.is_current(req.sender))
            # Zone endorsement of the representative's top-level messages.
            self.endorsement = EndorsementManager(
                host=self, zone=zone, view_provider=lambda: self.replica.view,
                use_threshold=use_threshold_signatures)

        self.global_replica: PBFTReplica | None = None
        if node_id in global_group:
            self.global_host = _GlobalHost(self)
            self.global_replica = PBFTReplica(
                host=self.global_host, group=global_group,
                profile=pbft_profile(global_f),
                app=_MetadataApp(policies), config=global_pbft_config,
                reply_fn=self._on_global_executed)
            self.register_handler(GlobalMsg, self._on_global_msg)

        self.register_handler(MigrationRequest, self._on_migration_request)
        self.register_handler(ZoneApply, self._on_zone_apply)
        self.register_handler(RecordShip, self._on_record_ship)

    # ------------------------------------------------------------------
    # Representative plumbing
    # ------------------------------------------------------------------
    @property
    def is_representative(self) -> bool:
        """Whether this node speaks for its zone at the top level."""
        return self.global_replica is not None and self.zone_id is not None

    def _zone_rep(self, zone_id: str) -> str:
        return self.directory.zone(zone_id).members[0]

    def _on_global_msg(self, sender: str, msg: GlobalMsg,
                       envelope: Signed) -> None:
        try:
            sender_zone = self.directory.zone_of(sender)
        except KeyError:
            sender_zone = None   # one of the extra CA participants
        if sender_zone is not None:
            if not self.directory.cert_valid(msg.cert, digest(msg.inner),
                                             sender_zone):
                return
        handler = self.global_host.handlers.get(type(msg.inner))
        if handler is not None:
            handler(sender, msg.inner, envelope)

    def _on_migration_request(self, sender: str, request: MigrationRequest,
                              envelope: Signed) -> None:
        if self.global_replica is not None:
            self.global_replica.submit_request(envelope)
        elif self.zone_id is not None:
            self.forward(self._zone_rep(self.zone_id), envelope)

    # ------------------------------------------------------------------
    # Global execution -> zone application
    # ------------------------------------------------------------------
    def _on_global_executed(self, request_env: Signed, result: Any) -> None:
        """reply_fn of the top-level replica: fan the decision into the
        zone (representatives) — extra CA participants do nothing."""
        if self.zone_id is None:
            return
        zone = self.directory.zone(self.zone_id)
        apply_msg = ZoneApply(request=request_env, sender=self.node_id)
        self.multicast_signed(zone.members, apply_msg, include_self=True)

    def _on_zone_apply(self, sender: str, msg: ZoneApply,
                       envelope: Signed) -> None:
        if sender != self._zone_rep(self.zone_id or ""):
            return
        if not verify_signed(self.keys, msg.request):
            return
        request = msg.request.payload
        key = request.key
        if key in self._applied:
            return
        self._applied.add(key)
        outcome = self.metadata.apply_migration(
            request.sender, request.source_zone, request.dest_zone)
        if not outcome.accepted:
            if self.zone_id == request.dest_zone:
                self._reply(request, outcome.as_result())
            return
        if self.zone_id == request.source_zone:
            self.locks.mark_stale(request.sender)
            if self.is_representative:
                self._ship_records(msg.request)
        elif self.zone_id == request.dest_zone:
            shipped = self._pending_records.pop(key, None)
            if shipped is not None:
                self._apply_records(shipped)
            else:
                self._awaiting_records[request.sender] = msg.request

    # ------------------------------------------------------------------
    # Record movement (the baseline's data migration)
    # ------------------------------------------------------------------
    def _ship_records(self, request_env: Signed) -> None:
        request = request_env.payload
        records = self.app.export_client(request.sender)
        ship = RecordShip(client_id=request.sender, records=records,
                          records_digest=digest(records),
                          request=request_env, sender=self.node_id)
        dest = self.directory.zone(request.dest_zone)
        self.multicast_signed(dest.members, ship)

    def _on_record_ship(self, sender: str, ship: RecordShip,
                        envelope: Signed) -> None:
        if ship.request is None or not verify_signed(self.keys, ship.request):
            return
        if digest(ship.records) != ship.records_digest:
            return
        request = ship.request.payload
        key = request.key
        if self._awaiting_records.pop(ship.client_id, None) is not None \
                or key in self._applied:
            self._apply_records(ship)
        else:
            self._pending_records[key] = ship

    def _apply_records(self, ship: RecordShip) -> None:
        request = ship.request.payload
        self.app.import_client(ship.client_id, ship.records)
        self.locks.mark_current(ship.client_id)
        self._reply(request, ("migrated", "ok", request.dest_zone))

    def _reply(self, request: MigrationRequest, result: Any) -> None:
        view = self.replica.view if self.replica is not None else 0
        reply = ClientReply(view=view, timestamp=request.timestamp,
                            client_id=request.sender, result=result,
                            sender=self.node_id)
        self.send_signed(request.sender, reply)


@dataclass
class TwoLevelConfig(DeploymentConfig):
    """Parameters of a two-level PBFT deployment."""

    f: int = 1
    global_pbft: PBFTConfig = field(default_factory=PBFTConfig)
    use_threshold_signatures: bool = False


class TwoLevelDeployment(Deployment):
    """Zones with local PBFT plus a 3F+1 top-level PBFT group."""

    def __init__(self, config: TwoLevelConfig) -> None:
        super().__init__(config)
        regions = regions_for_zones(config.num_zones)
        for i, region in enumerate(regions):
            self._add_zone(f"z{i}", "cluster-0", region,
                           pbft_profile(config.f))
        # Top level: Z zone representatives + F extra CA nodes => 3F+1.
        big_f = two_level_big_f(config.num_zones)
        if config.num_zones % 2 == 0:
            raise ConfigurationError(
                "two-level PBFT expects an odd number of zones (Z = 2F+1)")
        reps = [self.directory.zone(z).members[0] for z in self.zone_ids]
        extras = [f"gx{i}" for i in range(big_f)]
        self.global_group = tuple(reps + extras)
        self.global_f = big_f
        self._place_zone_nodes()
        for node_id in extras:
            self._place(self._make_node(node_id, None), regions[0])

    def _make_node(self, node_id: str, zone_id: str | None) -> TwoLevelNode:
        cfg = self.config
        return TwoLevelNode(
            sim=self.sim, network=self.network, keys=self.keys,
            node_id=node_id, directory=self.directory, zone_id=zone_id,
            global_group=self.global_group, global_f=self.global_f,
            app=cfg.app_factory(), policies=cfg.policies,
            pbft_config=cfg.pbft, global_pbft_config=cfg.global_pbft,
            cost_model=cfg.cost_model,
            behavior=cfg.behaviors.get(node_id),
            use_threshold_signatures=cfg.use_threshold_signatures)

    def _enrol(self, client_id: str, zone_id: str) -> None:
        # Meta-data on every node and every top-level replica; data +
        # lock in the home zone.
        for node in self.nodes.values():
            node.metadata.register_client(client_id, zone_id)
            if node.global_replica is not None:
                node.global_replica.app.metadata.register_client(
                    client_id, zone_id)
        self.host_client(client_id, zone_id)


def build_two_level(config: TwoLevelConfig | None = None,
                    **overrides: Any) -> TwoLevelDeployment:
    """Build a two-level PBFT deployment."""
    return TwoLevelDeployment(
        config_or_overrides(TwoLevelConfig, config, overrides))
