"""Intra-zone endorsement round messages.

Both Algorithm 1 (data synchronization) and Algorithm 2 (data migration)
repeatedly run the same sub-protocol inside a zone: the primary pre-prepares
a payload, nodes (optionally after a PBFT-style prepare round) send the
primary a vote whose share signs the payload digest, and the primary
aggregates ``2f+1`` shares into a certificate for the top level and sends
that certificate to the zone. These messages are that sub-protocol's wire
format; the paper's local-propose / local-promise / local-accept /
local-accepted / local-commit / local-state messages are all
:class:`EndorseVote` instances distinguished by the ``instance`` id.

Per §IV.B.1, the prepare round is only used when the zone itself assigns the
ballot number (``use_prepare=True``); endorsements of an already-certified
ballot skip it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.crypto.keys import Signature
from repro.messages.base import Message

__all__ = ["EndorsePrePrepare", "EndorsePrepare", "EndorseVote",
           "EndorseQuery"]


@dataclass(frozen=True)
class EndorsePrePrepare(Message):
    """Primary's pre-prepare for one endorsement instance.

    ``payload`` carries the full context nodes need to validate what they
    are endorsing (e.g. the top-level message body plus any piggybacked
    promise/accepted messages). ``endorse_digest`` is the digest votes sign.
    """

    instance: str
    view: int
    payload: Any
    endorse_digest: bytes
    use_prepare: bool
    sender: str


@dataclass(frozen=True)
class EndorsePrepare(Message):
    """PBFT-style prepare within an endorsement instance."""

    instance: str
    view: int
    endorse_digest: bytes
    sender: str


@dataclass(frozen=True)
class EndorseVote(Message):
    """A member's vote to the instance's leader, or the leader's
    certificate to the zone.

    A vote carries ``share``: the member's detached signature over
    ``endorse_digest`` itself (not over this message), so that ``2f+1``
    shares aggregate into a certificate any third party can validate
    against the body digest. The leader sends that certificate to the
    other members as ``cert`` (with no share). With neither, it answers
    an :class:`EndorseQuery`: the sender holds no certificate.
    """

    instance: str
    view: int
    endorse_digest: bytes
    share: Signature | None
    sender: str
    cert: Any = None


@dataclass(frozen=True)
class EndorseQuery(Message):
    """A member whose primary watch expired on an instance it never saw
    asks its zone for the instance's certificate. A member that finished
    the instance answers with an :class:`EndorseVote` carrying it, any
    other with one carrying neither share nor certificate."""

    instance: str
    view: int
    sender: str
