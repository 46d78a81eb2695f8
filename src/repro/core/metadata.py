"""Global system meta-data and network-wide policies.

Every node of every zone (or of every zone in a cluster, when zone
clusters are enabled) replicates the global system meta-data: the number
of clients per zone, the number of migrations per client, and the
authoritative zone of each client. Executing a committed global
transaction updates the meta-data *subject to the policy set* — the check
is part of deterministic execution, so all zones accept or reject a
migration identically (paper §III-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.crypto.digest import digest

__all__ = ["PolicySet", "GlobalMetadata", "MigrationOutcome"]


@dataclass(frozen=True)
class PolicySet:
    """Network-wide policies enforced on global transactions.

    The paper's running examples: "a zone cannot host more than 10000
    clients" and "a client can migrate at most 10 times a year".
    ``None`` disables a policy.
    """

    max_clients_per_zone: int | None = None
    max_migrations_per_client: int | None = None


@dataclass(frozen=True)
class MigrationOutcome:
    """Deterministic result of executing a migration operation."""

    accepted: bool
    reason: str
    client_id: str
    source_zone: str
    dest_zone: str

    def as_result(self) -> tuple:
        """Shape sent back to the client in replies."""
        status = "migrated" if self.accepted else "rejected"
        return (status, self.reason, self.dest_zone)


class GlobalMetadata:
    """The replicated meta-data state machine."""

    def __init__(self, policies: PolicySet | None = None) -> None:
        self.policies = policies or PolicySet()
        self.clients_per_zone: dict[str, int] = {}
        self.migrations_per_client: dict[str, int] = {}
        self.client_zone: dict[str, str] = {}
        self.rejected_migrations = 0

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------
    def register_client(self, client_id: str, zone_id: str) -> None:
        """Record a client's initial placement (deployment bootstrap)."""
        self.client_zone[client_id] = zone_id
        self.clients_per_zone[zone_id] = self.clients_per_zone.get(zone_id, 0) + 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def apply_migration(self, client_id: str, source_zone: str,
                        dest_zone: str,
                        adopt_source: bool = False) -> MigrationOutcome:
        """Apply one committed migration, enforcing policies.

        Deterministic: given identical meta-data, every node reaches the
        same outcome, so acceptance/rejection is consistent network-wide.

        ``adopt_source`` is used by the *destination* cluster of a
        cross-cluster migration: its regional meta-data cannot have
        tracked the client's intra-cluster moves inside other clusters,
        so instead of rejecting an unexpected source zone it adopts the
        (source-cluster-certified) claim and fixes up its counts.
        """
        current = self.client_zone.get(client_id)
        claimed = source_zone
        if current is not None and current != source_zone:
            if not adopt_source:
                self.rejected_migrations += 1
                return MigrationOutcome(False, "wrong-source-zone", client_id,
                                        source_zone, dest_zone)
            # Regional drift: decrement wherever *we* thought the client
            # was; the source cluster vouches for where it really is.
            source_zone = current
        # An adopted move is judged on its certified claim: drift that
        # already put the client at the destination here (a newer move
        # applied first, or a region that never saw it leave) must not
        # turn it into a rejection the nodes without that drift never make.
        if claimed == dest_zone:
            self.rejected_migrations += 1
            return MigrationOutcome(False, "same-zone", client_id,
                                    source_zone, dest_zone)
        limit = self.policies.max_migrations_per_client
        if limit is not None and self.migrations_per_client.get(client_id, 0) >= limit:
            self.rejected_migrations += 1
            return MigrationOutcome(False, "migration-limit", client_id,
                                    source_zone, dest_zone)
        cap = self.policies.max_clients_per_zone
        if cap is not None and self.clients_per_zone.get(dest_zone, 0) >= cap:
            self.rejected_migrations += 1
            return MigrationOutcome(False, "zone-full", client_id,
                                    source_zone, dest_zone)
        self.clients_per_zone[source_zone] = max(
            0, self.clients_per_zone.get(source_zone, 0) - 1)
        self.clients_per_zone[dest_zone] = self.clients_per_zone.get(dest_zone, 0) + 1
        self.migrations_per_client[client_id] = (
            self.migrations_per_client.get(client_id, 0) + 1)
        self.client_zone[client_id] = dest_zone
        return MigrationOutcome(True, "ok", client_id, source_zone, dest_zone)

    # ------------------------------------------------------------------
    # Snapshot / digest
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Full copy of the meta-data state."""
        return {
            "clients_per_zone": dict(self.clients_per_zone),
            "migrations_per_client": dict(self.migrations_per_client),
            "client_zone": dict(self.client_zone),
        }

    def restore(self, snapshot: dict[str, Any]) -> None:
        """Replace meta-data state with ``snapshot``."""
        self.clients_per_zone = dict(snapshot["clients_per_zone"])
        self.migrations_per_client = dict(snapshot["migrations_per_client"])
        self.client_zone = dict(snapshot["client_zone"])

    def state_digest(self) -> bytes:
        """Canonical digest for cross-node agreement checks."""
        return digest(self.snapshot())
