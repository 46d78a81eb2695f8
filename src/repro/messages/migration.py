"""Data migration protocol messages (Algorithm 2).

After the data synchronization protocol commits a batch of migrations,
each source zone certifies, per destination, the states ``R(c)`` of the
clients moving there with ``2f+1`` signatures and ships them to the
destination zone in one STATE message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.crypto.certificates import QuorumCertificate
from repro.crypto.digest import digest
from repro.messages.base import Message
from repro.messages.sync import Ballot

__all__ = ["StateTransfer", "state_body", "state_members"]

#: ``((client, digest(R(client))), ...)``: what a STATE certifies per member.
Members = tuple[tuple[str, bytes], ...]


def state_members(clients: Any, records: Any) -> Members | None:
    """Each client of ``clients`` beside the digest of its records in
    ``records``, in ``clients`` order — ``None`` unless ``clients`` is a
    non-empty tuple of client ids and ``records`` holds exactly them."""
    if not (isinstance(clients, tuple) and clients
            and isinstance(records, dict) and len(records) == len(clients)
            and all(isinstance(client, str) and client in records
                    for client in clients)):
        return None
    return tuple((client, digest(records[client])) for client in clients)


def state_body(ballot: Ballot, members: Members) -> bytes:
    """Digest certified by the source zone for a STATE message."""
    return digest(("state", ballot, members))


@dataclass(frozen=True)
class StateTransfer(Message):
    """STATE — the certified records of one group, from source to
    destination: the migrations ``ballot`` moves between the two zones,
    ``clients`` in client-id order, ``records`` by client.

    ``records`` is excluded from this object's digest; integrity comes from
    the certificate, which binds each member's records digest, and which
    receivers check against digests they recompute from ``records``.
    """

    view: int
    ballot: Ballot
    clients: tuple[str, ...]
    records: dict[str, dict[str, Any]] = field(compare=False,
                                               metadata={"digest": False})
    cert: QuorumCertificate | None = None
    sender: str = ""
