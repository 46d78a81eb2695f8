"""Data synchronization protocol messages (Algorithm 1).

Top-level (inter-zone) messages follow Paxos phases — propose, promise,
accept, accepted, commit — but every one carries a quorum certificate of
``2f+1`` intra-zone signatures over its *body digest*, computed by the
``*_body`` helpers here. A receiver recomputes the body digest from the
message fields and validates the certificate against it, which is how the
maliciousness of a primary is detected without extra communication.

A global transaction is ordered by a :class:`Ballot` ``(n, zone)`` and each
message names ``prev_ballot`` — the ballot of the latest accepted global
request — which fixes the execution order across gaps (§IV.B.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.crypto.certificates import QuorumCertificate
from repro.crypto.digest import digest
from repro.messages.base import Message, Signed

__all__ = [
    "Ballot",
    "GENESIS_BALLOT",
    "Propose",
    "Promise",
    "Accept",
    "Accepted",
    "GlobalCommit",
    "CheckpointRef",
    "propose_body",
    "promise_body",
    "accept_body",
    "accepted_body",
    "commit_body",
]


@dataclass(frozen=True, order=True)
class Ballot:
    """Global ballot number ``(n, zone_id)``; totally ordered."""

    seq: int
    zone_id: str

    @property
    def key(self) -> str:
        """``"<seq>.<zone_id>"``: the ballot's name in telemetry and
        endorsement instance ids (derived, so not part of the digest)."""
        return f"{self.seq}.{self.zone_id}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.seq},{self.zone_id}>"


#: Ballot preceding the first global transaction.
GENESIS_BALLOT = Ballot(seq=0, zone_id="")


@dataclass(frozen=True)
class CheckpointRef:
    """A zone's latest stable checkpoint, shipped for lazy synchronization."""

    zone_id: str
    sequence: int
    state_digest: bytes
    snapshot: dict[str, Any] = field(compare=False, metadata={"digest": False})


def propose_body(ballot: Ballot, request_digest: bytes) -> bytes:
    """Digest certified by the initiator zone for a PROPOSE message."""
    return digest(("propose", ballot, request_digest))


def promise_body(ballot: Ballot, prev_ballot: Ballot, zone_id: str,
                 request_digest: bytes) -> bytes:
    """Digest certified by a follower zone for a PROMISE message."""
    return digest(("promise", ballot, prev_ballot, zone_id, request_digest))


def accept_body(ballot: Ballot, prev_ballot: Ballot,
                request_digest: bytes) -> bytes:
    """Digest certified by the initiator zone for an ACCEPT message."""
    return digest(("accept", ballot, prev_ballot, request_digest))


def accepted_body(ballot: Ballot, prev_ballot: Ballot, zone_id: str,
                  request_digest: bytes) -> bytes:
    """Digest certified by a follower zone for an ACCEPTED message."""
    return digest(("accepted", ballot, prev_ballot, zone_id, request_digest))


def commit_body(ballot: Ballot, prev_ballot: Ballot,
                request_digest: bytes) -> bytes:
    """Digest certified by the initiator zone for a COMMIT message."""
    return digest(("commit", ballot, prev_ballot, request_digest))


@dataclass(frozen=True)
class Propose(Message):
    """PROPOSE from the global primary to every node of every zone.

    ``requests`` is the batch of signed migration requests ordered under
    this ballot (batching amortises the protocol, exactly as PBFT batches
    local requests).
    """

    view: int
    ballot: Ballot
    requests: tuple[Signed, ...]
    cert: QuorumCertificate  # over propose_body(ballot, batch digest)
    sender: str


@dataclass(frozen=True)
class Promise(Message):
    """PROMISE from a follower zone's primary back to the initiator zone."""

    view: int
    ballot: Ballot
    prev_ballot: Ballot      # latest ballot the follower zone accepted
    zone_id: str
    request_digest: bytes
    cert: QuorumCertificate
    sender: str


@dataclass(frozen=True)
class Accept(Message):
    """ACCEPT from the global primary to every node of every zone.

    Under the stable-leader optimisation there is no PROPOSE phase, so the
    ACCEPT also carries the signed request batch (follower zones need it
    to set migrating clients' lock bits and to execute at commit time).
    """

    view: int
    ballot: Ballot
    prev_ballot: Ballot
    request_digest: bytes
    cert: QuorumCertificate
    sender: str
    requests: tuple[Signed, ...] = ()


@dataclass(frozen=True)
class Accepted(Message):
    """ACCEPTED from a follower zone's primary back to the initiator zone."""

    view: int
    ballot: Ballot
    prev_ballot: Ballot
    zone_id: str
    request_digest: bytes
    cert: QuorumCertificate
    #: Latest stable checkpoint of the follower zone (lazy synchronization).
    checkpoint: CheckpointRef | None
    sender: str


@dataclass(frozen=True)
class GlobalCommit(Message):
    """COMMIT from the global primary; executing it updates the meta-data.

    Carries the full signed request batch so every node can execute even
    if it missed the PROPOSE, and the stable checkpoints collected from
    accepted messages so every zone replicates other zones' last stable
    state (lazy synchronization, §V-B).
    """

    view: int
    ballot: Ballot
    prev_ballot: Ballot
    requests: tuple[Signed, ...]
    cert: QuorumCertificate
    checkpoints: tuple[CheckpointRef, ...]
    sender: str
