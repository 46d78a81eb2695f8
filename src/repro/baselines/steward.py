"""Steward baseline (Amir et al., hierarchical BFT over WAN).

Steward, like Ziziphus, confines Byzantine faults inside fault-tolerant
sites and runs a crash-fault-tolerant protocol between site
representatives — but it *fully replicates* all data across sites, so
every single transaction requires global synchronization. The paper
evaluates Steward exactly this way: "Steward ... is similar to Ziziphus
with 100% global transactions".

We therefore build Steward on the Ziziphus substrate: the same zones,
endorsement rounds, and hierarchical Paxos-style top level (with a stable
leader), with two differences — every client operation is submitted as a
global transaction, and client state is seeded on *all* zones (full
replication). In exchange, Steward keeps zone data available when an
entire zone fails, which Ziziphus gives up for local-transaction speed.
"""

from __future__ import annotations

from typing import Any

from repro.core.client import MobileClient
from repro.core.deployment import ZiziphusConfig, ZiziphusDeployment

__all__ = ["StewardClient", "StewardDeployment", "build_steward"]


class StewardClient(MobileClient):
    """Client that routes *every* operation through global consensus
    (data is fully replicated, so a migration is a meta-data update)."""

    def submit_local(self, operation: tuple) -> None:
        """Submit an operation as a globally synchronized transaction.

        Steward has no local fast path: the operation is wrapped in a
        global request ordered across all zones and executed on the fully
        replicated state.
        """
        self._submit_global(operation, self.current_zone)


class StewardDeployment(ZiziphusDeployment):
    """Ziziphus deployment specialised to Steward semantics."""

    def add_client(self, client_id: str, zone_id: str,
                   retransmit_ms: float = 4_000.0) -> StewardClient:
        """Create a Steward client; its state is seeded on every zone."""
        client = StewardClient(sim=self.sim, network=self.network,
                               keys=self.keys, client_id=client_id,
                               directory=self.directory, home_zone=zone_id,
                               initiator_resolver=self._resolve_initiator,
                               retransmit_ms=retransmit_ms)
        self.network.register(client, self._zone_regions[zone_id])
        self.clients[client_id] = client
        for node in self.nodes.values():
            node.metadata.register_client(client_id, zone_id)
            node.register_local_client(client_id)
            self.config.seed_client(node.app, client_id)
        return client


def build_steward(config: ZiziphusConfig | None = None,
                  **overrides: Any) -> StewardDeployment:
    """Build a Steward deployment (Ziziphus config, Steward semantics)."""
    if config is None:
        config = ZiziphusConfig(**overrides)
    # Per-transaction checkpoints would be pathological at 100% global.
    config.sync.checkpoint_on_migration = False
    return StewardDeployment(config)
