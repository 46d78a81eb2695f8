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

from dataclasses import replace
from typing import Any

from repro.core.client import MobileClient
from repro.core.deployment import (ZiziphusConfig, ZiziphusDeployment,
                                   config_or_overrides)

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

    #: Reads too: Steward has no local fast path of any kind.
    submit_read = submit_local


class StewardDeployment(ZiziphusDeployment):
    """Ziziphus deployment specialised to Steward semantics."""

    client_class = StewardClient

    def _enrol(self, client_id: str, zone_id: str) -> None:
        # Full replication: meta-data everywhere, data + lock on every zone.
        for node in self.nodes.values():
            node.metadata.register_client(client_id, zone_id)
        for host in self.zone_ids:
            self.host_client(client_id, host)


def build_steward(config: ZiziphusConfig | None = None,
                  **overrides: Any) -> StewardDeployment:
    """Build a Steward deployment (Ziziphus config, Steward semantics)."""
    config = config_or_overrides(ZiziphusConfig, config, overrides)
    # Per-transaction checkpoints would be pathological at 100% global;
    # on a copy, so a config the caller reuses keeps its own value.
    return StewardDeployment(replace(config, sync=replace(
        config.sync, checkpoint_on_migration=False)))
