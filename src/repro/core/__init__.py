"""Ziziphus core: zones, global/meta-data protocols, deployments."""

from repro.core.client import MobileClient
from repro.core.clusters import ClusterEngine
from repro.core.cross_zone import CrossZoneEngine, CrossZoneRequest
from repro.core.audit import AuditConfig, QueryAudit
from repro.core.deployment import (ZiziphusConfig, ZiziphusDeployment,
                                   build_ziziphus)
from repro.core.endorsement import EndorsementManager
from repro.core.locks import LockTable
from repro.core.metadata import GlobalMetadata, MigrationOutcome, PolicySet
from repro.core.migration_protocol import MigrationConfig, MigrationEngine
from repro.core.node import ZiziphusNode
from repro.core.replicated import ReplicatedClient, add_replicated_client
from repro.core.sync_protocol import SyncConfig, SyncEngine
from repro.core.zone import ZoneDirectory, ZoneInfo

__all__ = [
    "ClusterEngine",
    "CrossZoneEngine",
    "CrossZoneRequest",
    "AuditConfig",
    "QueryAudit",
    "ReplicatedClient",
    "add_replicated_client",
    "EndorsementManager",
    "GlobalMetadata",
    "LockTable",
    "MigrationConfig",
    "MigrationEngine",
    "MigrationOutcome",
    "MobileClient",
    "PolicySet",
    "SyncConfig",
    "SyncEngine",
    "ZiziphusConfig",
    "ZiziphusDeployment",
    "ZiziphusNode",
    "ZoneDirectory",
    "ZoneInfo",
    "build_ziziphus",
]
