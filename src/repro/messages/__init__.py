"""Wire messages for every protocol in the reproduction."""

from repro.messages.base import (Message, Signed, decode_message,
                                 encode_message, nested_signature_units,
                                 sign_message, verify_signed)
from repro.messages.client import ClientReply, ClientRequest, MigrationRequest
from repro.messages.cluster import CrossCommit, CrossPropose, Prepared
from repro.messages.endorse import (EndorsePrepare, EndorsePrePrepare,
                                    EndorseQuery, EndorseVote)
from repro.messages.migration import StateTransfer, state_body
from repro.messages.pbft import (CheckpointFetch, CheckpointMsg,
                                 CheckpointSnapshot, Commit, GapReply,
                                 NewView, Prepare, PreparedProof, PrePrepare,
                                 ProofFetch, ProofReply, ViewChange)
from repro.messages.query import ResponseQuery
from repro.messages.reads import (ReadReply, ReadRequest, ReadWatermarkCert,
                                  WatermarkShare, watermark_body)
from repro.messages.sync import (GENESIS_BALLOT, Accept, Accepted, Ballot,
                                 CheckpointRef, GlobalCommit, Promise, Propose,
                                 accept_body, accepted_body, commit_body,
                                 promise_body, propose_body)
from repro.messages.trace import SpanContext, trace_id

__all__ = [
    "Accept",
    "Accepted",
    "Ballot",
    "CheckpointFetch",
    "CheckpointMsg",
    "CheckpointRef",
    "CheckpointSnapshot",
    "ClientReply",
    "ClientRequest",
    "Commit",
    "CrossCommit",
    "CrossPropose",
    "EndorsePrePrepare",
    "EndorsePrepare",
    "EndorseQuery",
    "EndorseVote",
    "GENESIS_BALLOT",
    "GapReply",
    "GlobalCommit",
    "Message",
    "MigrationRequest",
    "NewView",
    "Prepare",
    "Prepared",
    "PreparedProof",
    "PrePrepare",
    "ProofFetch",
    "ProofReply",
    "Promise",
    "Propose",
    "ReadReply",
    "ReadRequest",
    "ReadWatermarkCert",
    "ResponseQuery",
    "Signed",
    "SpanContext",
    "StateTransfer",
    "ViewChange",
    "WatermarkShare",
    "accept_body",
    "accepted_body",
    "commit_body",
    "decode_message",
    "encode_message",
    "nested_signature_units",
    "promise_body",
    "propose_body",
    "sign_message",
    "state_body",
    "trace_id",
    "verify_signed",
    "watermark_body",
]
