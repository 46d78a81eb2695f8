"""Standing a system up: simulator, PKI, network, nodes, clients.

:class:`Deployment` is what the four systems of the evaluation (§VII)
share — they run on the same regions, zones, clients and seeds, so the
scaffold is written once and each variant says only what differs: which
nodes are placed where, which client class is made with which extra
arguments, and which nodes get a client's meta-data, lock and seeded
state. :class:`ZiziphusDeployment` follows the paper's setups:

- single cluster: ``num_zones`` zones of ``3f+1`` nodes, placed across
  AWS regions per §VII-A (3 zones in CA/OH/QC, 5 in CA/SYD/PAR/LDN/TY, 7
  in all regions);
- multiple clusters: each cluster's zones share one region; clusters are
  placed across CA/SYD/PAR/LDN/TY, at most two per region (§VII-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.app.banking import BankingApp
from repro.consensus import get_backend
from repro.consensus.profile import QuorumProfile
from repro.core.client import MobileClient
from repro.core.clusters import ClusterEngine
from repro.core.metadata import PolicySet
from repro.core.migration_protocol import MigrationConfig
from repro.core.node import ZiziphusNode
from repro.core.sync_protocol import SyncConfig
from repro.core.zone import ZoneDirectory, ZoneInfo
from repro.crypto.keys import KeyRegistry
from repro.errors import ConfigurationError
from repro.pbft.faults import Behavior
from repro.pbft.replica import PBFTConfig
from repro.quorums import intra_zone_quorum
from repro.reads import ReadConfig
from repro.sim.events import Simulator
from repro.sim.latency import LatencyModel, Region, regions_for_zones
from repro.sim.network import Network
from repro.sim.process import CostModel, Process

__all__ = ["Deployment", "DeploymentConfig", "ZiziphusConfig",
           "ZiziphusDeployment", "build_ziziphus", "config_or_overrides"]

#: Cluster placement for §VII-D: one region per cluster, max two per region.
_CLUSTER_REGIONS = (Region.CALIFORNIA, Region.SYDNEY, Region.PARIS,
                    Region.LONDON, Region.TOKYO)


@dataclass
class DeploymentConfig:
    """What every system of the evaluation is configured with."""

    num_zones: int = 3
    seed: int = 0
    policies: PolicySet = field(default_factory=PolicySet)
    pbft: PBFTConfig = field(default_factory=PBFTConfig)
    cost_model: CostModel = field(default_factory=CostModel)
    latency: LatencyModel = field(default_factory=LatencyModel)
    app_factory: Callable[[], Any] = BankingApp
    #: Per-client seeding of a node's application state at bootstrap.
    seed_client: Callable[[Any, str], None] = (
        lambda app, client_id: app.execute(("open", 10_000), client_id))
    #: Byzantine behaviour per node id (default honest).
    behaviors: dict[str, Behavior] = field(default_factory=dict)


@dataclass
class ZiziphusConfig(DeploymentConfig):
    """Parameters of one Ziziphus deployment."""

    f: int = 1
    #: Must divide ``num_zones``: every cluster gets the same share.
    num_clusters: int = 1
    sync: SyncConfig = field(default_factory=SyncConfig)
    migration: MigrationConfig = field(default_factory=MigrationConfig)
    #: Certified read path (disabled by default; see repro.reads).
    read: ReadConfig = field(default_factory=ReadConfig)
    use_threshold_signatures: bool = False
    #: Named consensus backend (see :mod:`repro.consensus.registry`).
    backend: str = "default"


class Deployment:
    """A system stood up on the simulator: zones of nodes, then clients.

    Registration order — nodes zone by zone in placement order, then
    clients as they are added — fixes the heap's ``seq`` tie-breaks and
    the network's RNG draws, so it is part of the byte-identity contract.
    Subclasses place their nodes in ``__init__`` and supply
    :meth:`_enrol`; a system without certifying zones (flat PBFT) also
    overrides the zone-backed queries.
    """

    #: The client class :meth:`add_client` makes unless told otherwise.
    client_class: type = MobileClient

    def __init__(self, config: DeploymentConfig) -> None:
        self.config = config
        self.sim = Simulator()
        self.keys = KeyRegistry(seed=config.seed)
        self.network = Network(self.sim, config.latency, seed=config.seed)
        self.directory = ZoneDirectory(self.keys)
        self.nodes: dict[str, Any] = {}
        self.clients: dict[str, Any] = {}
        #: Region of each zone, in placement order; a client sits in the
        #: region of the zone it is in.
        self.zone_regions: dict[str, Region] = {}

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _add_zone(self, zone_id: str, cluster_id: str, region: Region,
                  profile: QuorumProfile) -> None:
        members = tuple(f"{zone_id}n{j}" for j in range(profile.group_size))
        self.directory.add_zone(ZoneInfo(
            zone_id=zone_id, members=members, region=region, profile=profile,
            cluster_id=cluster_id))
        self.zone_regions[zone_id] = region

    def _place(self, node: Process, region: Region) -> None:
        self.network.register(node, region)
        self.nodes[node.node_id] = node

    def _place_zone_nodes(self) -> None:
        for zone_id in self.zone_ids:
            zone = self.directory.zone(zone_id)
            for node_id in zone.members:
                self._place(self._make_node(node_id, zone_id), zone.region)

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------
    @property
    def zone_ids(self) -> list[str]:
        """All zone ids, in placement order."""
        return list(self.zone_regions)

    def cluster_of_zone(self, zone_id: str) -> str:
        """The cluster id of a zone."""
        return self.directory.cluster_of_zone(zone_id)

    def zone_nodes(self, zone_id: str) -> list[Any]:
        """The node objects of one zone."""
        return [self.nodes[m] for m in self.directory.zone(zone_id).members]

    def topology(self) -> dict:
        """The zones and clusters the conformance monitor checks against
        (what :meth:`repro.obs.monitor.MonitorTopology.from_dict` reads)."""
        zones = {}
        for zone_id in self.zone_ids:
            info = self.directory.zone(zone_id)
            zones[zone_id] = {"members": list(info.members), "f": info.f,
                              "cluster": info.cluster_id}
            if info.quorum != intra_zone_quorum(info.f):
                # Not PBFT sizing: the checkers must use the profile's
                # certificate quorum instead of assuming 2f+1 of 3f+1.
                zones[zone_id]["quorum"] = info.quorum
        return {"zones": zones,
                "clusters": {cid: self.directory.cluster_zones(cid)
                             for cid in self.directory.cluster_ids}}

    def backups(self) -> list[list[str]]:
        """Per fault domain, the members that are not its initial primary
        (or representative), in placement order: whom a backup-failure
        experiment crashes first (Figure 6)."""
        return [list(self.directory.zone(zone_id).members[1:])
                for zone_id in self.zone_ids]

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    def add_client(self, client_id: str, zone_id: str,
                   retransmit_ms: float = 4_000.0,
                   client_class: type | None = None) -> Any:
        """Create a client homed in ``zone_id`` and bootstrap its state
        (``client_class``: a subclass of the deployment's own to make
        instead, taking the same arguments)."""
        client = (client_class or self.client_class)(
            sim=self.sim, network=self.network, keys=self.keys,
            client_id=client_id, retransmit_ms=retransmit_ms,
            **self._client_args(zone_id))
        self.network.register(client, self.zone_regions[zone_id])
        self.clients[client_id] = client
        self._enrol(client_id, zone_id)
        return client

    def _client_args(self, zone_id: str) -> dict[str, Any]:
        """What the client class takes beyond the simulator plumbing."""
        return {"directory": self.directory, "home_zone": zone_id}

    def _enrol(self, client_id: str, zone_id: str) -> None:
        """Which nodes learn the client's meta-data, and which zones
        :meth:`host_client` its data."""
        raise NotImplementedError

    def host_client(self, client_id: str, zone_id: str) -> None:
        """Make ``zone_id`` a host of the client's data: its lock held
        and its state seeded on every node of the zone."""
        for node in self.zone_nodes(zone_id):
            node.locks.register(client_id)
            self.config.seed_client(node.app, client_id)

    def run(self, until_ms: float) -> None:
        """Advance the simulation to ``until_ms``."""
        self.sim.run(until=until_ms)


class ZiziphusDeployment(Deployment):
    """Ziziphus: PBFT zones under a certified Paxos-style top level."""

    def __init__(self, config: ZiziphusConfig) -> None:
        super().__init__(config)
        self.backend = get_backend(config.backend)
        #: What a certified read of an operation reads, in the
        #: application's key layout: clients check proofs of that key.
        self.read_key = config.app_factory().read_key
        self._build_topology()
        self._place_zone_nodes()

    def _build_topology(self) -> None:
        cfg = self.config
        profile = self.backend.profile(cfg.f)
        if cfg.num_clusters < 1:
            raise ConfigurationError("need at least one cluster")
        if cfg.num_clusters == 1:
            for i, region in enumerate(regions_for_zones(cfg.num_zones)):
                self._add_zone(f"z{i}", "cluster-0", region, profile)
            return
        per_cluster, left_over = divmod(cfg.num_zones, cfg.num_clusters)
        if left_over or per_cluster < 1:
            raise ConfigurationError(
                f"{cfg.num_zones} zones cannot be shared equally among "
                f"{cfg.num_clusters} clusters")
        for c in range(cfg.num_clusters):
            region = _CLUSTER_REGIONS[c % len(_CLUSTER_REGIONS)]
            for i in range(c * per_cluster, (c + 1) * per_cluster):
                self._add_zone(f"z{i}", f"cluster-{c}", region, profile)

    def _make_node(self, node_id: str, zone_id: str) -> ZiziphusNode:
        cfg = self.config
        node = ZiziphusNode(
            sim=self.sim, network=self.network, keys=self.keys,
            node_id=node_id, directory=self.directory,
            app=cfg.app_factory(), policies=cfg.policies,
            pbft_config=cfg.pbft, sync_config=cfg.sync,
            migration_config=cfg.migration, cost_model=cfg.cost_model,
            behavior=cfg.behaviors.get(node_id),
            use_threshold_signatures=cfg.use_threshold_signatures,
            backend=self.backend, read_config=cfg.read)
        if cfg.num_clusters > 1:
            node.cluster_engine = ClusterEngine(node)
        return node

    def topology(self) -> dict:
        data = super().topology()
        if self.backend.sync.commuting_execution:
            data["execution"] = "commuting"
        return data

    def primary_of(self, zone_id: str) -> ZiziphusNode:
        """The current primary node of a zone (queries a live replica)."""
        members = self.directory.zone(zone_id).members
        view = max(self.nodes[m].replica.view for m in members)
        return self.nodes[self.directory.zone(zone_id).primary(view)]

    def set_behavior(self, node_id: str, behavior) -> None:
        """Swap a node's Byzantine behaviour at runtime (chaos engine).

        ``behavior`` is a :class:`~repro.pbft.faults.Behavior` instance
        or a registered name; see :meth:`HostNode.set_behavior`.
        """
        self.nodes[node_id].set_behavior(behavior)

    def _resolve_initiator(self, source_zone: str, dest_zone: str) -> str:
        # Initiator policy belongs to the global consensus backend: the
        # stable engine routes to the destination cluster's leader zone
        # (keeping each cluster's ballot chain single-writer); the
        # rotating engine lets every destination zone initiate.
        return self.backend.sync.initiator_zone(
            self.directory, self.config.sync, dest_zone)

    def _client_args(self, zone_id: str) -> dict[str, Any]:
        return dict(super()._client_args(zone_id),
                    initiator_resolver=self._resolve_initiator,
                    read_config=self.config.read,
                    read_key=self.read_key)

    def _enrol(self, client_id: str, zone_id: str) -> None:
        # Meta-data on every node of the client's cluster; data + lock in
        # the home zone.
        cluster_id = self.cluster_of_zone(zone_id)
        for node in self.nodes.values():
            if node.zone_info.cluster_id == cluster_id:
                node.metadata.register_client(client_id, zone_id)
        self.host_client(client_id, zone_id)


def config_or_overrides(config_class: type, config: Any,
                        overrides: dict[str, Any]) -> Any:
    """The one rule of the four ``build_*``: a config *or* keyword
    overrides of its defaults, never both."""
    if config is None:
        return config_class(**overrides)
    if overrides:
        raise ConfigurationError("pass either a config or overrides, not both")
    return config


def build_ziziphus(config: ZiziphusConfig | None = None,
                   **overrides: Any) -> ZiziphusDeployment:
    """Build a deployment from a config (or keyword overrides)."""
    return ZiziphusDeployment(
        config_or_overrides(ZiziphusConfig, config, overrides))
