"""Flat PBFT baseline.

One PBFT group spans every region: all transactions — local banking
operations and migrations — are ordered by a single instance whose quorums
cross the WAN. Following §VII, to tolerate the same number of faults as a
Ziziphus deployment with ``Z`` zones of ``3f+1`` nodes, flat PBFT needs
``3 Z f + 1`` nodes (``Z-1`` fewer): ``3f+1`` in the first region and
``3f`` in each other region.

This baseline's collapse as zones (regions) grow is the paper's headline
comparison: its quorums (``2/3`` of all nodes) cannot be formed within any
one region once per-region node counts drop below the quorum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.app.banking import BankingApp
from repro.baselines.metadata_app import CombinedApp
from repro.core.metadata import PolicySet
from repro.crypto.keys import KeyRegistry
from repro.pbft.client import InFlight, PBFTClient
from repro.pbft.faults import Behavior
from repro.pbft.node import PBFTNode
from repro.pbft.replica import PBFTConfig
from repro.quorums import group_size
from repro.sim.events import Simulator
from repro.sim.latency import LatencyModel, Region, regions_for_zones
from repro.sim.network import Network
from repro.sim.process import CostModel

__all__ = ["FlatClient", "FlatPBFTConfig", "FlatPBFTDeployment",
           "build_flat_pbft"]


class FlatClient(PBFTClient):
    """The flat baseline behind the four ``submit_*`` of every workload
    client. There are no zones here, so each of them is one ``submit`` to
    the single group (a cross-zone transfer is just a transfer on the
    global store); a client's zone is only the region it sits in."""

    def __init__(self, zone_regions: dict[str, Region], home_zone: str,
                 **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.zone_regions = zone_regions
        self.current_zone = home_zone

    submit_local = submit_read = PBFTClient.submit

    def submit_migration(self, dest_zone: str) -> None:
        self.submit(("migrate", self.node_id, self.current_zone, dest_zone))

    def submit_cross_zone_transfer(self, peer: str, peer_zone: str,
                                   amount: int) -> None:
        self.submit(("transfer", peer, amount))

    def _settle(self, flight: InFlight, result: Any) -> bool:
        operation = flight.request.operation
        is_global = operation[0] == "migrate"
        if is_global and isinstance(result, tuple) and result \
                and result[0] == "migrated":
            self.current_zone = operation[3]
            self.network.move(self.node_id,
                              self.zone_regions[self.current_zone])
        return is_global


@dataclass
class FlatPBFTConfig:
    """Parameters of a flat PBFT deployment."""

    num_zones: int = 3          # number of regions ("zones" in the paper)
    f_per_zone: int = 1         # per-region fault budget (total f = Z * f)
    seed: int = 0
    policies: PolicySet = field(default_factory=PolicySet)
    pbft: PBFTConfig = field(default_factory=PBFTConfig)
    cost_model: CostModel = field(default_factory=CostModel)
    latency: LatencyModel = field(default_factory=LatencyModel)
    app_factory: Callable[[], object] = BankingApp
    seed_client: Callable[[object, str], None] = (
        lambda app, client_id: app.execute(("open", 10_000), client_id))
    behaviors: dict[str, Behavior] = field(default_factory=dict)


class FlatPBFTDeployment:
    """A flat PBFT group spanning the paper's regions."""

    def __init__(self, config: FlatPBFTConfig) -> None:
        self.config = config
        self.sim = Simulator()
        self.keys = KeyRegistry(seed=config.seed)
        self.network = Network(self.sim, config.latency, seed=config.seed)
        self.nodes: dict[str, PBFTNode] = {}
        self.clients: dict[str, FlatClient] = {}
        regions = regions_for_zones(config.num_zones)
        #: Region of each notional zone.
        self.zone_regions = dict(zip(self.zone_ids, regions))
        self.total_f = config.num_zones * config.f_per_zone

        placement: list[tuple[str, Region]] = []
        counter = 0
        for i, region in enumerate(regions):
            # 3f+1 nodes in the first region, 3f in every other (Z-1 fewer
            # nodes than Ziziphus in total, as the paper prescribes).
            full = group_size(config.f_per_zone)
            count = full if i == 0 else full - 1
            for _ in range(count):
                placement.append((f"n{counter}", region))
                counter += 1
        self.group = tuple(node_id for node_id, _ in placement)
        for node_id, region in placement:
            node = PBFTNode(sim=self.sim, network=self.network,
                            keys=self.keys, node_id=node_id,
                            group=self.group, f=self.total_f,
                            app=CombinedApp(config.app_factory(),
                                            config.policies),
                            config=config.pbft,
                            cost_model=config.cost_model,
                            behavior=config.behaviors.get(node_id))
            self.network.register(node, region)
            self.nodes[node_id] = node

    @property
    def zone_ids(self) -> list[str]:
        """Notional zone names (one per region) for workload compatibility."""
        return [f"z{i}" for i in range(self.config.num_zones)]

    def cluster_of_zone(self, zone_id: str) -> str:
        """Every notional zone is in the one cluster."""
        return "cluster-0"

    def add_client(self, client_id: str, zone_id: str,
                   retransmit_ms: float = 4_000.0) -> FlatClient:
        """Create a client placed in the region of its notional zone."""
        client = FlatClient(self.zone_regions, zone_id,
                            sim=self.sim, network=self.network,
                            keys=self.keys, client_id=client_id,
                            group=self.group, f=self.total_f,
                            retransmit_ms=retransmit_ms)
        self.network.register(client, self.zone_regions[zone_id])
        self.clients[client_id] = client
        for node in self.nodes.values():
            node.replica.app.metadata.register_client(client_id, zone_id)
            self.config.seed_client(node.replica.app.app, client_id)
        return client

    def run(self, until_ms: float) -> None:
        """Advance the simulation to ``until_ms``."""
        self.sim.run(until=until_ms)


def build_flat_pbft(config: FlatPBFTConfig | None = None,
                    **overrides) -> FlatPBFTDeployment:
    """Build a flat PBFT deployment from a config or keyword overrides."""
    if config is None:
        config = FlatPBFTConfig(**overrides)
    return FlatPBFTDeployment(config)
