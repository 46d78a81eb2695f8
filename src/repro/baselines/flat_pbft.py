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

from dataclasses import dataclass
from typing import Any

from repro.baselines.metadata_app import CombinedApp
from repro.core.deployment import (Deployment, DeploymentConfig,
                                   config_or_overrides)
from repro.pbft.client import InFlight, PBFTClient
from repro.pbft.node import PBFTNode
from repro.quorums import group_size
from repro.sim.latency import Region, regions_for_zones

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
class FlatPBFTConfig(DeploymentConfig):
    """Parameters of a flat PBFT deployment; ``num_zones`` is the number
    of regions ("zones" in the paper)."""

    f_per_zone: int = 1         # per-region fault budget (total f = Z * f)


class FlatPBFTDeployment(Deployment):
    """A flat PBFT group spanning the paper's regions.

    No zone certifies anything here, so the directory stays empty:
    ``zone_regions`` names one notional zone per region for the workload,
    and the zone-backed queries answer for the single group."""

    client_class = FlatClient

    def __init__(self, config: FlatPBFTConfig) -> None:
        super().__init__(config)
        self.total_f = config.num_zones * config.f_per_zone
        full = group_size(config.f_per_zone)
        placement: list[tuple[str, Region]] = []
        for i, region in enumerate(regions_for_zones(config.num_zones)):
            self.zone_regions[f"z{i}"] = region
            # 3f+1 nodes in the first region, 3f in every other (Z-1 fewer
            # nodes than Ziziphus in total, as the paper prescribes).
            for _ in range(full if i == 0 else full - 1):
                placement.append((f"n{len(placement)}", region))
        self.group = tuple(node_id for node_id, _ in placement)
        for node_id, region in placement:
            self._place(PBFTNode(
                sim=self.sim, network=self.network, keys=self.keys,
                node_id=node_id, group=self.group, f=self.total_f,
                app=CombinedApp(config.app_factory(), config.policies),
                config=config.pbft, cost_model=config.cost_model,
                behavior=config.behaviors.get(node_id)), region)

    def cluster_of_zone(self, zone_id: str) -> str:
        """Every notional zone is in the one cluster."""
        return "cluster-0"

    def topology(self) -> dict:
        return {"zones": {"group": {"members": list(self.group),
                                    "f": self.total_f,
                                    "cluster": "cluster-0"}},
                "clusters": {"cluster-0": ["group"]}}

    def backups(self) -> list[list[str]]:
        # Per region; the group's one primary is n0.
        by_region: dict[Region, list[str]] = {}
        for node_id in self.group[1:]:
            by_region.setdefault(self.network.region_of(node_id),
                                 []).append(node_id)
        return list(by_region.values())

    def _client_args(self, zone_id: str) -> dict[str, Any]:
        return {"zone_regions": self.zone_regions, "home_zone": zone_id,
                "group": self.group, "f": self.total_f}

    def _enrol(self, client_id: str, zone_id: str) -> None:
        for node in self.nodes.values():
            node.replica.app.metadata.register_client(client_id, zone_id)
            self.config.seed_client(node.replica.app.app, client_id)


def build_flat_pbft(config: FlatPBFTConfig | None = None,
                    **overrides: Any) -> FlatPBFTDeployment:
    """Build a flat PBFT deployment from a config or keyword overrides."""
    return FlatPBFTDeployment(
        config_or_overrides(FlatPBFTConfig, config, overrides))
