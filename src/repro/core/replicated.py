"""Zone-replicated clients (paper §V-B availability option).

Proposition 5.4: if an entire zone fails, its data becomes unavailable.
The paper's remedy for clients that need zonal fault tolerance is to
"replicate local transactions on multiple zones where for every local
transaction ... consensus among all the zones that maintain the data is
needed. This approach is similar to the cross-zone transaction
processing ... different zones maintain the same data" — at the price of
geo-scale latency for every write.

:class:`ReplicatedClient` implements exactly that on the cross-zone
machinery: every *write* is a cross-zone transaction whose step is the
same operation in every replication-group zone (the home zone prepares,
the others apply at finalize), and *reads* stay local. When the home
zone fails entirely, :meth:`ReplicatedClient.fail_over` moves the client
to a surviving group zone where its data is already live.
"""

from __future__ import annotations

from repro.core.client import MobileClient
from repro.errors import ConfigurationError

__all__ = ["ReplicatedClient", "add_replicated_client"]


class ReplicatedClient(MobileClient):
    """A client whose data is kept live on a whole replication group."""

    #: Set by :func:`add_replicated_client`.
    replication_group: tuple[str, ...] = ()

    def submit_replicated(self, operation: tuple) -> None:
        """Apply ``operation`` on every zone of the replication group.

        The home (current) zone orders and executes the operation first —
        its deterministic outcome decides commit/abort — and the other
        group zones apply it at finalize time, keeping all copies equal.
        """
        if not self.replication_group:
            raise ConfigurationError("client has no replication group")
        self._submit_steps({zone: operation
                            for zone in self.replication_group})

    def fail_over(self, zone_id: str) -> None:
        """Re-home the client onto another zone of its group (used when
        the home zone suffers a whole-zone outage)."""
        if zone_id not in self.replication_group:
            raise ConfigurationError(
                f"{zone_id} is not in the replication group")
        self.current_zone = zone_id
        self.network.move(self.node_id, self.directory.zone(zone_id).region)


def add_replicated_client(deployment, client_id: str,
                          zones: list[str]) -> ReplicatedClient:
    """Create a client hosted live on several zones (§V-B).

    The client's state is seeded on every zone of the group and all of
    them hold its lock, so any group zone can serve reads — and writes go
    through :meth:`ReplicatedClient.submit_replicated`.
    """
    if len(zones) < 2:
        raise ConfigurationError("a replication group needs >= 2 zones")
    client = deployment.add_client(client_id, zones[0],
                                   client_class=ReplicatedClient)
    client.replication_group = tuple(zones)
    for zone_id in zones[1:]:
        deployment.host_client(client_id, zone_id)
    return client
