"""Deployment builder: zones, clusters, nodes, clients, network.

Assembles a full Ziziphus deployment on the simulator following the
paper's experimental setups:

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
from repro.reads import ReadConfig
from repro.sim.events import Simulator
from repro.sim.latency import LatencyModel, Region, regions_for_zones
from repro.sim.network import Network
from repro.sim.process import CostModel

__all__ = ["ZiziphusConfig", "ZiziphusDeployment", "build_ziziphus"]

#: Cluster placement for §VII-D: one region per cluster, max two per region.
_CLUSTER_REGIONS = (Region.CALIFORNIA, Region.SYDNEY, Region.PARIS,
                    Region.LONDON, Region.TOKYO)


@dataclass
class ZiziphusConfig:
    """Parameters of one Ziziphus deployment."""

    num_zones: int = 3
    f: int = 1
    num_clusters: int = 1
    zones_per_cluster: int | None = None   # defaults to num_zones / clusters
    seed: int = 0
    policies: PolicySet = field(default_factory=PolicySet)
    pbft: PBFTConfig = field(default_factory=PBFTConfig)
    sync: SyncConfig = field(default_factory=SyncConfig)
    migration: MigrationConfig = field(default_factory=MigrationConfig)
    cost_model: CostModel = field(default_factory=CostModel)
    latency: LatencyModel = field(default_factory=LatencyModel)
    #: Certified read path (disabled by default; see repro.reads).
    read: ReadConfig = field(default_factory=ReadConfig)
    #: Fraction of client actions issued as certified reads (workload
    #: drivers read this; 0.0 keeps the deployment write-only).
    read_fraction: float = 0.0
    app_factory: Callable[[], Any] = BankingApp
    use_threshold_signatures: bool = False
    #: Named consensus backend (see :mod:`repro.consensus.registry`).
    backend: str = "default"
    #: Per-client seeding of a node's application state at bootstrap.
    seed_client: Callable[[Any, str], None] = (
        lambda app, client_id: app.execute(("open", 10_000), client_id))
    #: Byzantine behaviour per node id (default honest).
    behaviors: dict[str, Behavior] = field(default_factory=dict)


class ZiziphusDeployment:
    """A built deployment: simulator, network, nodes, clients."""

    def __init__(self, config: ZiziphusConfig) -> None:
        self.config = config
        self.backend = get_backend(config.backend)
        self.sim = Simulator()
        self.keys = KeyRegistry(seed=config.seed)
        self.network = Network(self.sim, config.latency, seed=config.seed)
        self.directory = ZoneDirectory(self.keys)
        self.nodes: dict[str, ZiziphusNode] = {}
        self.clients: dict[str, MobileClient] = {}
        self._zone_regions: dict[str, Region] = {}
        self._build_topology()
        self._build_nodes()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_topology(self) -> None:
        cfg = self.config
        if cfg.num_clusters < 1:
            raise ConfigurationError("need at least one cluster")
        if cfg.num_clusters == 1:
            regions = regions_for_zones(cfg.num_zones)
            for i in range(cfg.num_zones):
                self._add_zone(f"z{i}", "cluster-0", regions[i])
            return
        per_cluster = cfg.zones_per_cluster or max(
            1, cfg.num_zones // cfg.num_clusters)
        zone_index = 0
        for c in range(cfg.num_clusters):
            region = _CLUSTER_REGIONS[c % len(_CLUSTER_REGIONS)]
            for _ in range(per_cluster):
                self._add_zone(f"z{zone_index}", f"cluster-{c}", region)
                zone_index += 1

    def _add_zone(self, zone_id: str, cluster_id: str, region: Region) -> None:
        profile = self.backend.profile(self.config.f)
        members = tuple(f"{zone_id}n{j}" for j in range(profile.group_size))
        # The quorum field stays at its 3f+1 default for the pbft profile
        # so default-backend topology dumps are unchanged.
        quorum = (None if profile.name == "pbft"
                  else profile.certificate_quorum)
        zone = ZoneInfo(zone_id=zone_id, members=members, region=region,
                        f=self.config.f, cluster_id=cluster_id,
                        quorum=quorum)
        self.directory.add_zone(zone)
        self._zone_regions[zone_id] = region

    def _build_nodes(self) -> None:
        cfg = self.config
        multi_cluster = len(self.directory.cluster_ids) > 1
        for zone_id in self.directory.zone_ids:
            zone = self.directory.zone(zone_id)
            for node_id in zone.members:
                node = ZiziphusNode(
                    sim=self.sim, network=self.network, keys=self.keys,
                    node_id=node_id, directory=self.directory,
                    app=cfg.app_factory(), policies=cfg.policies,
                    pbft_config=cfg.pbft, sync_config=cfg.sync,
                    migration_config=cfg.migration,
                    cost_model=cfg.cost_model,
                    behavior=cfg.behaviors.get(node_id),
                    use_threshold_signatures=cfg.use_threshold_signatures,
                    backend=self.backend,
                    read_config=cfg.read)
                if multi_cluster:
                    node.cluster_engine = ClusterEngine(node)
                self.network.register(node, zone.region)
                self.nodes[node_id] = node

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------
    @property
    def zone_ids(self) -> list[str]:
        """All zone ids."""
        return self.directory.zone_ids

    def cluster_of_zone(self, zone_id: str) -> str:
        """The cluster id of a zone."""
        return self.directory.cluster_of_zone(zone_id)

    def zone_nodes(self, zone_id: str) -> list[ZiziphusNode]:
        """The node objects of one zone."""
        return [self.nodes[m] for m in self.directory.zone(zone_id).members]

    def primary_of(self, zone_id: str) -> ZiziphusNode:
        """The current primary node of a zone (queries a live replica)."""
        members = self.directory.zone(zone_id).members
        view = max(self.nodes[m].replica.view for m in members)
        return self.nodes[self.directory.zone(zone_id).primary(view)]

    def zone_of_node(self, node_id: str) -> str:
        """The zone id hosting ``node_id``."""
        return self.directory.zone_of(node_id)

    def set_behavior(self, node_id: str, behavior) -> None:
        """Swap a node's Byzantine behaviour at runtime (chaos engine).

        ``behavior`` is a :class:`~repro.pbft.faults.Behavior` instance
        or a registered name; see :meth:`HostNode.set_behavior`.
        """
        self.nodes[node_id].set_behavior(behavior)

    def stable_leader_zone(self, cluster_id: str) -> str:
        """The designated stable-leader zone of a cluster (its first zone)."""
        return self.directory.cluster_zones(cluster_id)[0]

    def _resolve_initiator(self, source_zone: str, dest_zone: str) -> str:
        # Initiator policy belongs to the global consensus backend: the
        # stable engine routes to the destination cluster's leader zone
        # (keeping each cluster's ballot chain single-writer); the
        # rotating engine lets every destination zone initiate.
        return self.backend.sync.initiator_zone(self, source_zone, dest_zone)

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    def add_client(self, client_id: str, zone_id: str,
                   retransmit_ms: float = 4_000.0) -> MobileClient:
        """Create a client homed in ``zone_id`` and bootstrap its state."""
        client = MobileClient(sim=self.sim, network=self.network,
                              keys=self.keys, client_id=client_id,
                              directory=self.directory, home_zone=zone_id,
                              initiator_resolver=self._resolve_initiator,
                              retransmit_ms=retransmit_ms,
                              read_config=self.config.read)
        self.network.register(client, self._zone_regions[zone_id])
        self.clients[client_id] = client
        # Bootstrap: meta-data on every node; data + lock in the home zone.
        cluster_id = self.directory.cluster_of_zone(zone_id)
        for node in self.nodes.values():
            if node.zone_info.cluster_id == cluster_id or \
                    self.config.num_clusters == 1:
                node.metadata.register_client(client_id, zone_id)
        for node in self.zone_nodes(zone_id):
            node.register_local_client(client_id)
            self.config.seed_client(node.app, client_id)
        return client

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def run(self, until_ms: float) -> None:
        """Advance the simulation to ``until_ms``."""
        self.sim.run(until=until_ms)


def build_ziziphus(config: ZiziphusConfig | None = None,
                   **overrides: Any) -> ZiziphusDeployment:
    """Build a deployment from a config (or keyword overrides)."""
    if config is None:
        config = ZiziphusConfig(**overrides)
    elif overrides:
        raise ConfigurationError("pass either a config or overrides, not both")
    return ZiziphusDeployment(config)
