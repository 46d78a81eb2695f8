"""PBFT wire messages (normal case, checkpointing, view change).

Requests are processed in *batches*: a pre-prepare carries a tuple of signed
client requests and is identified by the batch digest, which is what
prepare/commit votes reference. A batch of one reproduces textbook PBFT.
The batch itself is outside the pre-prepare's digest, so the primary's
signature covers the batch digest alone: a prepared proof carries the
pre-prepare without its batch (:func:`proof_pre_prepare`), as
Castro-Liskov's VIEW-CHANGE carries a digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.messages.base import Message, Signed, redact

__all__ = [
    "PrePrepare",
    "Prepare",
    "Commit",
    "CheckpointMsg",
    "CheckpointFetch",
    "CheckpointSnapshot",
    "PreparedProof",
    "ViewChange",
    "NewView",
    "BatchFetch",
    "BatchReply",
    "proof_pre_prepare",
]


@dataclass(frozen=True)
class PrePrepare(Message):
    """Primary's ordering proposal for a batch at (view, sequence).

    ``batch`` is excluded from this object's digest (it is still counted
    for the client signatures it holds); integrity comes from
    ``batch_digest``, which a receiver recomputes from ``batch`` before it
    votes.
    """

    view: int
    sequence: int
    batch_digest: bytes
    batch: tuple[Signed, ...] = field(compare=False,
                                      metadata={"digest": False})
    sender: str


@dataclass(frozen=True)
class Prepare(Message):
    """Backup's agreement with the pre-prepare at (view, sequence)."""

    view: int
    sequence: int
    batch_digest: bytes
    sender: str


@dataclass(frozen=True)
class Commit(Message):
    """Commit vote; 2f+1 matching commits make the batch committed-local."""

    view: int
    sequence: int
    batch_digest: bytes
    sender: str


@dataclass(frozen=True)
class CheckpointMsg(Message):
    """Vote that the replica reached ``state_digest`` after ``sequence``."""

    sequence: int
    state_digest: bytes
    sender: str


@dataclass(frozen=True)
class CheckpointFetch(Message):
    """Request the full snapshot behind a stable checkpoint.

    Sent by a replica that learns of a stable checkpoint above its own
    last-executed sequence (it crashed, or was partitioned away, while the
    zone progressed): its missing slots may be garbage-collected
    zone-wide, so state transfer is the only way back.
    """

    sequence: int
    sender: str


@dataclass(frozen=True)
class CheckpointSnapshot(Message):
    """Reply to a fetch: the snapshot at a stable checkpoint.

    ``snapshot`` is excluded from this object's digest; integrity comes
    from ``state_digest``, which 2f+1 checkpoint votes vouch for and the
    fetcher re-derives from the restored state before adopting.
    """

    sequence: int
    state_digest: bytes
    snapshot: dict[str, Any] = field(compare=False,
                                     metadata={"digest": False})
    sender: str = ""


@dataclass(frozen=True)
class PreparedProof:
    """Evidence that a batch was prepared: pre-prepare + 2f prepares.

    The pre-prepare comes without its batch (:func:`proof_pre_prepare`):
    the proof binds the batch digest, and a new primary re-proposes the
    batch from its own slot or fetches it (:class:`BatchFetch`).
    """

    pre_prepare: Signed
    prepares: tuple[Signed, ...]


def proof_pre_prepare(envelope: Signed) -> Signed:
    """The pre-prepare envelope ``envelope`` as a proof carries it: its
    payload without the batch, under the primary's same signature. A
    payload that is not a bare :class:`PrePrepare` (the two-level
    baseline's top-level carrier) goes whole."""
    if type(envelope.payload) is not PrePrepare:
        return envelope
    return redact(envelope, batch=())


@dataclass(frozen=True)
class ViewChange(Message):
    """VIEW-CHANGE into ``new_view`` carrying prepared evidence."""

    new_view: int
    last_stable_sequence: int
    prepared_proofs: tuple[PreparedProof, ...]
    sender: str


@dataclass(frozen=True)
class NewView(Message):
    """NEW-VIEW from the new primary: 2f+1 view-changes + re-proposals."""

    new_view: int
    view_changes: tuple[Signed, ...]
    pre_prepares: tuple[Signed, ...]
    sender: str


@dataclass(frozen=True)
class BatchFetch(Message):
    """A new primary's request for the batch a prepared proof names by
    digest, which it must re-propose and does not hold."""

    sequence: int
    batch_digest: bytes
    sender: str


@dataclass(frozen=True)
class BatchReply(Message):
    """Reply to a fetch: the batch, which the fetcher accepts only if it
    hashes to the proven digest."""

    sequence: int
    batch_digest: bytes
    batch: tuple[Signed, ...]
    sender: str
