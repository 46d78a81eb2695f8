"""Wire-message registry: the closed set of types that cross the network.

``WIRE_MESSAGES`` maps every :class:`~repro.messages.base.Message` subclass
to its class, keyed by class name. It is the single source of truth used by

- the codec (:func:`repro.messages.base.decode_message` refuses names not
  listed here), and
- the ``message-totality`` lint rule, which checks bidirectionally that
  every ``Message`` subclass appears here and has a registered handler
  somewhere in the codebase (or is delivered directly to clients, see
  ``CLIENT_DELIVERED``), and that no stale names linger in the registry.

``NESTED_TYPES`` lists the value types that only appear *inside* messages
(envelopes, signatures, certificates, ballots, proofs). They are decodable
but are deliberately not messages: nothing dispatches on them.
"""

from __future__ import annotations

from repro.crypto.certificates import QuorumCertificate
from repro.crypto.keys import Signature
from repro.crypto.threshold import ThresholdCertificate
from repro.messages.base import Signed
from repro.messages.client import ClientReply, ClientRequest, MigrationRequest
from repro.messages.cluster import CrossCommit, CrossPropose, Prepared
from repro.messages.endorse import (EndorsePrepare, EndorsePrePrepare,
                                    EndorseQuery, EndorseVote)
from repro.messages.migration import StateTransfer
from repro.messages.pbft import (CheckpointFetch, CheckpointMsg,
                                 CheckpointSnapshot, Commit, GapReply,
                                 NewView, Prepare, PreparedProof, PrePrepare,
                                 ProofFetch, ProofReply, ViewChange)
from repro.messages.query import ResponseQuery
from repro.messages.reads import (ReadReply, ReadRequest, ReadWatermarkCert,
                                  WatermarkShare)
from repro.messages.sync import (Accept, Accepted, Ballot, CheckpointRef,
                                 GlobalCommit, Promise, Propose)
from repro.messages.trace import SpanContext

__all__ = ["WIRE_MESSAGES", "CLIENT_DELIVERED", "NESTED_TYPES", "codec_types"]


#: Every Message subclass that may appear as a Signed envelope's payload.
WIRE_MESSAGES: dict[str, type] = {
    "ClientRequest": ClientRequest,
    "MigrationRequest": MigrationRequest,
    "ClientReply": ClientReply,
    "CrossPropose": CrossPropose,
    "Prepared": Prepared,
    "CrossCommit": CrossCommit,
    "EndorsePrePrepare": EndorsePrePrepare,
    "EndorsePrepare": EndorsePrepare,
    "EndorseVote": EndorseVote,
    "EndorseQuery": EndorseQuery,
    "StateTransfer": StateTransfer,
    "PrePrepare": PrePrepare,
    "Prepare": Prepare,
    "Commit": Commit,
    "CheckpointMsg": CheckpointMsg,
    "CheckpointFetch": CheckpointFetch,
    "CheckpointSnapshot": CheckpointSnapshot,
    "ViewChange": ViewChange,
    "NewView": NewView,
    "ProofFetch": ProofFetch,
    "ProofReply": ProofReply,
    "GapReply": GapReply,
    "ResponseQuery": ResponseQuery,
    "Propose": Propose,
    "Promise": Promise,
    "Accept": Accept,
    "Accepted": Accepted,
    "GlobalCommit": GlobalCommit,
    "WatermarkShare": WatermarkShare,
    "ReadRequest": ReadRequest,
    "ReadReply": ReadReply,
}

#: Messages consumed by clients via direct delivery rather than a
#: ``register_handler`` dispatch table (see PBFTClient.on_message and
#: MobileClient.on_message).
CLIENT_DELIVERED: frozenset[str] = frozenset({"ClientReply", "ReadReply"})

#: Value types nested inside messages; decodable but never dispatched on.
NESTED_TYPES: dict[str, type] = {
    "Signed": Signed,
    "Signature": Signature,
    "QuorumCertificate": QuorumCertificate,
    "ThresholdCertificate": ThresholdCertificate,
    "Ballot": Ballot,
    "CheckpointRef": CheckpointRef,
    "PreparedProof": PreparedProof,
    "SpanContext": SpanContext,
    "ReadWatermarkCert": ReadWatermarkCert,
}


def codec_types() -> dict[str, type]:
    """Full name→class table the wire codec may decode."""
    return {**NESTED_TYPES, **WIRE_MESSAGES}
