"""Wire messages for the certified read path (stale-bounded edge reads).

Reads bypass consensus entirely: zone replicas continuously certify their
committed state with *watermark certificates* — ``f+1`` matching signatures
over a ``(zone, sequence, state_digest, watermark_ts)`` tuple, where
``state_digest`` is the root of the state tree — and any one replica can
then serve a read against that certified watermark, with an inclusion
proof of the value against the root. The client verifies the certificate
quorum, the proof and the staleness bound locally, so a Byzantine replica
can neither fabricate a watermark (it lacks ``f+1`` signatures) nor a
value (it has no proof) nor silently serve stale data (the client rejects
certificates older than the declared bound and falls back to the
transactional path).

``watermark_ts`` is quantized to the read engine's epoch so that replicas
executing the same sequence at slightly different simulated times still
produce byte-identical share bodies; see :mod:`repro.reads.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.crypto.certificates import QuorumCertificate
from repro.crypto.digest import digest
from repro.crypto.keys import Signature
from repro.messages.base import Message

__all__ = [
    "ReadReply",
    "ReadRequest",
    "ReadWatermarkCert",
    "WatermarkShare",
    "watermark_body",
]


def watermark_body(zone: str, sequence: int, state_digest: bytes,
                   watermark_ts: float) -> bytes:
    """Canonical digest every watermark signature covers.

    The domain-separation tag keeps watermark signatures from ever being
    confused with signatures over other protocol bodies.
    """
    return digest(("read-watermark", zone, sequence, state_digest,
                   watermark_ts))


@dataclass(frozen=True)
class WatermarkShare(Message):
    """One replica's signature share over its committed watermark.

    ``signature`` covers :func:`watermark_body` of the claimed tuple —
    *not* the envelope digest — so shares from ``f+1`` distinct replicas
    aggregate into a transferable :class:`ReadWatermarkCert`.
    """

    zone: str
    sequence: int
    state_digest: bytes
    watermark_ts: float
    signature: Signature
    sender: str


@dataclass(frozen=True)
class ReadWatermarkCert:
    """``f+1`` matching watermark signatures: a certified commit watermark.

    A nested value type (rides inside :class:`ReadReply`), never dispatched
    on its own. The certificate's ``payload_digest`` must equal
    :func:`watermark_body` of the claimed fields — a fabricated claim over
    a genuine certificate is detectable by recomputing the body.
    """

    zone: str
    sequence: int
    state_digest: bytes
    watermark_ts: float
    certificate: QuorumCertificate

    def body(self) -> bytes:
        """Recompute the digest the certificate must bind."""
        return watermark_body(self.zone, self.sequence, self.state_digest,
                              self.watermark_ts)


@dataclass(frozen=True)
class ReadRequest(Message):
    """Client-issued certified read against a zone's committed state.

    ``session`` is the client's per-zone watermark vector — pairs of
    ``(zone_id, minimum_sequence)`` — for the optional causal session
    mode: a replica only answers when its certified watermark dominates
    the entry for its own zone, giving Byzantine-tolerant monotonic reads.
    """

    operation: tuple
    timestamp: int
    sender: str
    session: tuple = ()


@dataclass(frozen=True)
class ReadReply(Message):
    """A replica's answer to a :class:`ReadRequest`.

    ``status`` is ``"ok"`` when the read was served, or an explicit
    fallback code (``"migrating"``, ``"no-watermark"``, ``"behind"``,
    ``"unsupported"``, ``"absent"``) directing the client to the
    transactional path. A served read carries the value the read's key
    has in the version ``cert`` certifies, as ``result``, and ``proof``:
    its inclusion proof against ``cert.state_digest``
    (:func:`repro.storage.merkle.verify_proof`).
    """

    timestamp: int
    client_id: str
    status: str
    result: Any
    cert: Optional[ReadWatermarkCert]
    sender: str
    proof: bytes = b""
