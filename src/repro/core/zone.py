"""Zones, zone clusters, and the network directory.

A *zone* is a Byzantine fault-tolerant group of edge nodes in one region,
sized by its consensus backend's quorum profile (``3f+1`` under PBFT); a
*zone cluster* is a set of zones sharing regional system meta-data (paper
§VI). The :class:`ZoneDirectory` is the static deployment map every node
is configured with: zone membership, regions, and cluster assignment. It
also centralises certificate validation against a zone's membership and
quorum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.consensus.profile import QuorumProfile
from repro.crypto.certificates import CertificateVerifier, QuorumCertificate
from repro.crypto.keys import KeyRegistry
from repro.crypto.threshold import (ThresholdCertificate, ThresholdVerifier,
                                    well_formed)
from repro.errors import ConfigurationError
from repro.messages.client import MigrationRequest
from repro.quorums import proxy_count, zone_majority
from repro.sim.latency import Region

__all__ = ["ZoneInfo", "ZoneDirectory", "group_cert_valid"]


@dataclass(frozen=True)
class ZoneInfo:
    """Static description of one zone.

    ``profile`` is the zone's consensus backend's
    :class:`~repro.consensus.profile.QuorumProfile`, the one place its
    size is decided: ``f``, ``quorum`` and ``weak_quorum`` read it, and a
    zone has at least ``profile.group_size`` members.
    """

    zone_id: str
    members: tuple[str, ...]
    region: Region
    profile: QuorumProfile
    cluster_id: str = "cluster-0"

    def __post_init__(self) -> None:
        if len(self.members) < self.profile.group_size:
            raise ConfigurationError(
                f"zone {self.zone_id} needs >= {self.profile.group_size} "
                f"members under {self.profile.name} "
                f"(got {len(self.members)} for f={self.profile.f})"
            )
        # Hot-path memo (the dataclass is frozen, hence the setattr
        # spelling): certificate checks hit it per message.
        object.__setattr__(self, "_member_set", frozenset(self.members))

    @property
    def f(self) -> int:
        """Byzantine members tolerated."""
        return self.profile.f

    @property
    def quorum(self) -> int:
        """Distinct signers a certificate of this zone needs."""
        return self.profile.certificate_quorum

    @property
    def weak_quorum(self) -> int:
        """Smallest set of members that holds a correct one."""
        return self.profile.weak_quorum

    @property
    def member_set(self) -> frozenset[str]:
        """Membership as a frozenset (cached; members stays the tuple)."""
        return self._member_set

    def primary(self, view: int) -> str:
        """Primary of this zone in local view ``view``."""
        return self.members[view % len(self.members)]

    def proxies(self, view: int) -> tuple[str, ...]:
        """The f+1 proxy nodes for cross-cluster communication (§VI).

        The primary is always a proxy; the next f nodes in rotation join it
        so at least one proxy is correct.
        """
        size = len(self.members)
        return tuple(self.members[(view + k) % size]
                     for k in range(proxy_count(self.f)))


class ZoneDirectory:
    """Deployment-wide map of zones, clusters, and node placement."""

    def __init__(self, keys: KeyRegistry) -> None:
        self._zones: dict[str, ZoneInfo] = {}
        self._node_zone: dict[str, str] = {}
        self._clusters: dict[str, list[str]] = {}
        self._cert_verifier = CertificateVerifier(keys)
        self._threshold_verifier = ThresholdVerifier(keys)

    def add_zone(self, zone: ZoneInfo) -> None:
        """Register a zone and index its members."""
        if zone.zone_id in self._zones:
            raise ConfigurationError(f"duplicate zone id {zone.zone_id!r}")
        self._zones[zone.zone_id] = zone
        self._clusters.setdefault(zone.cluster_id, []).append(zone.zone_id)
        for member in zone.members:
            if member in self._node_zone:
                raise ConfigurationError(
                    f"node {member!r} already belongs to a zone")
            self._node_zone[member] = zone.zone_id

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def zone_ids(self) -> list[str]:
        """All zone ids, in registration order."""
        return list(self._zones)

    @property
    def cluster_ids(self) -> list[str]:
        """All cluster ids, in registration order."""
        return list(self._clusters)

    def zone(self, zone_id: str) -> ZoneInfo:
        """Zone info by id."""
        return self._zones[zone_id]

    def zone_of(self, node_id: str) -> str:
        """Zone id a node belongs to."""
        return self._node_zone[node_id]

    def is_member(self, node_id: str) -> bool:
        """Whether ``node_id`` is a member of some zone."""
        return node_id in self._node_zone

    def cluster_zones(self, cluster_id: str) -> list[str]:
        """Zone ids of one cluster."""
        return list(self._clusters[cluster_id])

    def cluster_of_zone(self, zone_id: str) -> str:
        """Cluster id a zone belongs to."""
        return self._zones[zone_id].cluster_id

    def crosses_clusters(self, request: Any) -> bool:
        """Whether ``request`` migrates a client between two zone
        clusters (paper §VI): the one test of it."""
        if not isinstance(request, MigrationRequest):
            return False
        source = self._zones.get(request.source_zone)
        dest = self._zones.get(request.dest_zone)
        return source is not None and dest is not None and \
            source.cluster_id != dest.cluster_id

    def all_nodes(self) -> list[str]:
        """Every zone member across the deployment."""
        return [m for z in self._zones.values() for m in z.members]

    def nodes_of_zones(self, zone_ids: list[str]) -> list[str]:
        """Members of the given zones, flattened."""
        return [m for zid in zone_ids for m in self._zones[zid].members]

    def majority_quorum(self, zone_ids: list[str]) -> int:
        """Majority-of-zones quorum used for global consensus."""
        return zone_majority(len(zone_ids))

    # ------------------------------------------------------------------
    # Certificate validation
    # ------------------------------------------------------------------
    def cert_valid(self, cert, expected_digest: bytes, zone_id: str) -> bool:
        """Whether ``cert`` proves a quorum of ``zone_id`` signed the
        digest."""
        zone = self._zones.get(zone_id)
        if zone is None:
            return False
        return group_cert_valid(cert, expected_digest, zone.member_set,
                                zone.quorum, self._cert_verifier,
                                self._threshold_verifier)


def group_cert_valid(cert, expected_digest: bytes, members: frozenset[str],
                     quorum: int, certificates: CertificateVerifier,
                     thresholds: ThresholdVerifier) -> bool:
    """Whether ``cert`` proves that ``quorum`` of ``members`` signed
    ``expected_digest``: its digest, its signers or group, its threshold
    and its tags. The one check of a zone certificate — on an inter-zone
    message (:meth:`ZoneDirectory.cert_valid`) and on the certificate an
    endorsement leader sends its zone. It arrives from the network, so a
    threshold certificate's shape is checked before any part of it is
    compared."""
    if isinstance(cert, QuorumCertificate):
        return (cert.payload_digest == expected_digest
                and certificates.is_valid(cert, quorum, members))
    if isinstance(cert, ThresholdCertificate):
        return (well_formed(cert) and cert.payload_digest == expected_digest
                and cert.group == members and cert.threshold >= quorum
                and thresholds.is_valid(cert))
    return False
