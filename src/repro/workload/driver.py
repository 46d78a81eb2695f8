"""Closed-loop workload driver.

Drives every client of a deployment in a closed loop ("clients execute in
a closed loop", §VII): each completion immediately triggers the next
action drawn from the :class:`~repro.workload.generator.WorkloadGenerator`.
Works with any deployment: every client offers ``submit_local`` /
``submit_migration`` / ``submit_read`` / ``submit_cross_zone_transfer``
and knows its ``current_zone``.
"""

from __future__ import annotations

from typing import Any

from repro.pbft.client import CompletedRequest
from repro.sim.rng import derive_rng
from repro.workload.generator import WorkloadGenerator, WorkloadMix

__all__ = ["ClosedLoopDriver"]


class ClosedLoopDriver:
    """Runs a workload mix over a deployment's clients."""

    def __init__(self, deployment: Any, mix: WorkloadMix,
                 clients_per_zone: int, seed: int = 0,
                 stagger_ms: float = 1.0) -> None:
        self.deployment = deployment
        self.mix = mix
        self.records: list[CompletedRequest] = []
        self.zone_of_client: dict[str, str] = {}
        self._stagger_ms = stagger_ms
        self._clients: dict[str, Any] = {}

        zone_ids = list(deployment.zone_ids)
        for zone_id in zone_ids:
            for i in range(clients_per_zone):
                client_id = f"{zone_id}c{i}"
                client = deployment.add_client(client_id, zone_id)
                self._clients[client_id] = client
                self.zone_of_client[client_id] = zone_id

        self.generator = WorkloadGenerator(
            mix=mix, zone_ids=zone_ids,
            zone_of_client=self.zone_of_client,
            rng=derive_rng(seed, "workload"),
            cluster_of_zone={z: deployment.cluster_of_zone(z)
                             for z in zone_ids})

    # ------------------------------------------------------------------
    # Per-client loop
    # ------------------------------------------------------------------
    def _submit(self, client_id: str) -> None:
        client = self._clients[client_id]
        kind, arg = self.generator.next_action(client_id)
        if kind == "read":
            client.submit_read(arg)
        elif kind == "migrate":
            client.submit_migration(arg)
        elif kind == "xzone":
            peer, peer_zone, amount = arg
            # The peer may have moved since the draw; use the live map.
            client.submit_cross_zone_transfer(
                peer, self.zone_of_client.get(peer, peer_zone), amount)
        else:
            client.submit_local(arg)

    def _on_complete(self, client_id: str, record: CompletedRequest) -> None:
        self.zone_of_client[client_id] = self._clients[client_id].current_zone
        self.records.append(record)
        self._submit(client_id)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm every client; first submissions are staggered slightly so
        the primary is not hit by a synchronized burst at t=0."""
        sim = self.deployment.sim
        for index, (client_id, client) in enumerate(self._clients.items()):
            client.on_complete = (
                lambda record, cid=client_id: self._on_complete(cid, record))
            delay = (index % 50) * self._stagger_ms / 50.0
            sim.schedule(delay, self._submit, client_id)

    def run(self, duration_ms: float) -> list[CompletedRequest]:
        """Start (if needed) and run for ``duration_ms``; returns records."""
        if not any(c.on_complete for c in self._clients.values()):
            self.start()
        self.deployment.sim.run(until=self.deployment.sim.now + duration_ms)
        return self.records
