"""Client-facing messages: requests, migration requests, replies."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.messages.base import Message
from repro.messages.trace import SpanContext

__all__ = ["ClientRequest", "MigrationRequest", "ClientReply"]


@dataclass(frozen=True)
class ClientRequest(Message):
    """A local transaction on the client's data in its current zone.

    Attributes:
        operation: application operation, e.g. ``("transfer", src, dst, amt)``.
        timestamp: client-local, totally ordered per client; used for
            exactly-once execution and replay protection.
        sender: the client id (also the signer).
        ctx: optional causal span context, stamped only when the
            instrumentation bus runs in the ``causal`` tier. Excluded
            from the canonical digest (``digest: False``) so signatures,
            request digests, and therefore every simulated byte stay
            identical whether tracing is on or off.
    """

    operation: tuple
    timestamp: int
    sender: str
    ctx: SpanContext | None = field(default=None, compare=False,
                                    metadata={"digest": False})

    @property
    def key(self) -> tuple[str, int]:
        """``(sender, timestamp)``: PBFT's name for a request, and the only
        one every table of requests uses. Not a field: no digest covers it."""
        return self.sender, self.timestamp


@dataclass(frozen=True)
class MigrationRequest(Message):
    """MIG-REQUEST — a global transaction moving a client between zones.

    Executing the embedded ``operation`` updates the global system meta-data
    (client counts, migration counts) subject to network-wide policies.
    """

    operation: tuple
    timestamp: int
    sender: str
    source_zone: str
    dest_zone: str
    ctx: SpanContext | None = field(default=None, compare=False,
                                    metadata={"digest": False})

    key = ClientRequest.key


@dataclass(frozen=True)
class ClientReply(Message):
    """REPLY from a node to a client; f+1 matching replies complete a txn."""

    view: int
    timestamp: int
    client_id: str
    result: Any
    sender: str
