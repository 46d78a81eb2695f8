"""PBFT wire messages (normal case, checkpointing, view change).

Requests are processed in *batches*: a pre-prepare carries a tuple of signed
client requests and is identified by the batch digest, which is what
prepare/commit votes reference. A batch of one reproduces textbook PBFT.
The batch itself is outside the pre-prepare's digest, so the primary's
signature covers the batch digest alone: a NEW-VIEW re-proposes a batch
by its digest, and a prepared proof is a reference a receiver checks
against its own log, as Castro-Liskov's VIEW-CHANGE carries digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.messages.base import Message, Signed

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
    "ProofFetch",
    "ProofReply",
    "GapReply",
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
    """Ask the zone for what the sender lacks from ``sequence`` on: it
    fell behind a stable checkpoint, or finds a gap below a committed
    slot. A member with a snapshot covering ``sequence`` sends it; any
    other, a :class:`GapReply` per slot it executed from there on."""

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
    """A reference to a prepared batch: the pre-prepare of ``view``'s
    primary at ``sequence`` for ``batch_digest``, and the prepares of
    ``signers`` for it — its sender's own among them.

    It carries no signature: a receiver matches it against the
    pre-prepare and prepares it verified itself, and fetches the signed
    originals of what it cannot match (:class:`ProofFetch`).
    """

    view: int
    sequence: int
    batch_digest: bytes
    signers: tuple[str, ...]


@dataclass(frozen=True)
class ViewChange(Message):
    """VIEW-CHANGE into ``new_view`` carrying prepared evidence."""

    new_view: int
    last_stable_sequence: int
    prepared_proofs: tuple[PreparedProof, ...]
    sender: str


@dataclass(frozen=True)
class NewView(Message):
    """NEW-VIEW from the new primary: 2f+1 view-changes and, for every
    sequence from the highest stable checkpoint among them to the highest
    proven one, a re-proposal without its batch (a no-op where nothing is
    proven). A backup recomputes them from the view-changes before it
    adopts them, each batch from its own slot or fetched."""

    new_view: int
    view_changes: tuple[Signed, ...]
    pre_prepares: tuple[Signed, ...]
    sender: str


@dataclass(frozen=True)
class ProofFetch(Message):
    """A request for the signed originals behind a prepared proof —
    ``view``'s pre-prepare at ``sequence`` for ``batch_digest`` and its
    prepares — that the asker could not match in its own log: a new
    primary assembling NEW-VIEW asks the members that name it, a backup
    checking one asks the new primary."""

    view: int
    sequence: int
    batch_digest: bytes
    sender: str


@dataclass(frozen=True)
class ProofReply(Message):
    """Reply to a fetch: the slot's signed pre-prepare, batch included,
    and the signed prepares the replier holds for it, its own among
    them. The asker verifies each before it counts."""

    sequence: int
    batch_digest: bytes
    pre_prepare: Signed
    prepares: tuple[Signed, ...]
    sender: str


@dataclass(frozen=True)
class GapReply(Message):
    """Answer to a :class:`CheckpointFetch` that no snapshot of the
    sender's covers, one per slot it executed from there on: the sender
    executed ``pre_prepare``'s batch at its sequence. Once ``f+1``
    members say so of one batch, a correct one did, and the asker
    executes it too."""

    pre_prepare: Signed
    sender: str
