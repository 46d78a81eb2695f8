"""Unit tests for signed envelopes and signature-unit accounting."""

import pytest

from repro.crypto.certificates import QuorumCertificate
from repro.crypto.digest import digest
from repro.crypto.keys import KeyRegistry
from repro.messages.base import (Signed, nested_signature_units, sign_message,
                                 verify_signed)
from repro.messages.client import ClientRequest, MigrationRequest
from repro.messages.pbft import Prepare, PrePrepare
from repro.messages.sync import (Ballot, GENESIS_BALLOT, Propose,
                                 propose_body)


@pytest.fixture
def keys():
    return KeyRegistry(seed=11)


def signed_request(keys, client="c1", ts=1):
    request = ClientRequest(operation=("deposit", 5), timestamp=ts,
                            sender=client)
    return sign_message(keys, client, request)


def test_sign_and_verify(keys):
    env = signed_request(keys)
    assert verify_signed(keys, env)
    assert env.sender == "c1"


def test_sender_field_must_match_signer(keys):
    request = ClientRequest(operation=("deposit", 5), timestamp=1,
                            sender="c1")
    env = sign_message(keys, "mallory", request)
    assert not verify_signed(keys, env)


def test_tampered_payload_fails(keys):
    env = signed_request(keys)
    tampered = Signed(payload=ClientRequest(operation=("deposit", 500),
                                            timestamp=1, sender="c1"),
                      signature=env.signature)
    assert not verify_signed(keys, tampered)


def test_simple_message_costs_one_unit(keys):
    env = signed_request(keys)
    assert env.signature_units() == 1
    prepare = Prepare(view=0, sequence=1, batch_digest=b"d", sender="n0")
    assert sign_message(keys, "n0", prepare).signature_units() == 1


def test_batch_pre_prepare_counts_nested_requests(keys):
    batch = tuple(signed_request(keys, client=f"c{i}", ts=1)
                  for i in range(3))
    pp = PrePrepare(view=0, sequence=1, batch_digest=b"d", batch=batch,
                    sender="n0")
    env = sign_message(keys, "n0", pp)
    assert env.signature_units() == 1 + 3


def test_certificate_units_counted(keys):
    payload = digest("body")
    cert = QuorumCertificate.aggregate(
        payload, [keys.sign(f"n{i}", payload) for i in range(3)])
    request = MigrationRequest(operation=("migrate", "c", "z0", "z1"),
                               timestamp=1, sender="c",
                               source_zone="z0", dest_zone="z1")
    req_env = sign_message(keys, "c", request)
    propose = Propose(view=0, ballot=Ballot(1, "z0"), requests=(req_env,),
                      cert=cert, sender="n0")
    env = sign_message(keys, "n0", propose)
    # outer sig + 1 nested request + 3 cert signatures
    assert env.signature_units() == 1 + 1 + 3


def test_units_memoised_per_envelope(keys):
    env = signed_request(keys)
    assert env.signature_units() == env.signature_units()
    assert nested_signature_units((env, env)) == 2


def test_ballot_ordering():
    assert Ballot(1, "z0") < Ballot(2, "z0")
    assert Ballot(1, "z0") < Ballot(1, "z1")
    assert GENESIS_BALLOT < Ballot(1, "z0")
    assert max(Ballot(3, "a"), Ballot(2, "z")) == Ballot(3, "a")


def test_body_helpers_are_stable():
    ballot = Ballot(4, "z1")
    assert propose_body(ballot, b"d") == propose_body(Ballot(4, "z1"), b"d")
    assert propose_body(ballot, b"d") != propose_body(Ballot(5, "z1"), b"d")


# ----------------------------------------------------------------------
# Wire codec and registry totality
# ----------------------------------------------------------------------
def test_codec_round_trips_a_nested_message(keys):
    from repro.crypto.digest import digest as _digest
    from repro.messages.base import decode_message, encode_message

    payload = propose_body(Ballot(1, "z0"), b"d")
    cert = QuorumCertificate.aggregate(
        payload, [keys.sign(f"n{i}", payload) for i in range(3)])
    propose = Propose(view=0, ballot=Ballot(1, "z0"),
                      requests=(signed_request(keys),), cert=cert,
                      sender="n0")
    env = sign_message(keys, "n0", propose)
    decoded = decode_message(encode_message(env))
    assert decoded == env
    assert _digest(decoded.payload) == _digest(env.payload)
    assert verify_signed(keys, decoded)


def test_codec_round_trips_every_wire_message(keys):
    """Construct a representative instance of each registered message."""
    from repro.crypto.digest import digest as _digest
    from repro.messages import (Accept, Accepted, CheckpointMsg,
                                CheckpointRef, ClientReply, Commit,
                                CrossCommit, CrossPropose,
                                EndorsePrepare, EndorsePrePrepare,
                                EndorseQuery, EndorseVote, GlobalCommit,
                                NewView, Prepared, PreparedProof, Promise,
                                ResponseQuery, StateTransfer, ViewChange)
    from repro.messages.base import decode_message, encode_message
    from repro.messages.pbft import (CheckpointFetch, CheckpointSnapshot,
                                     GapReply, Prepare as PbftPrepare,
                                     ProofFetch, ProofReply)

    ballot = Ballot(2, "z0")
    prev = GENESIS_BALLOT
    body = propose_body(ballot, b"d")
    cert = QuorumCertificate.aggregate(
        body, [keys.sign(f"n{i}", body) for i in range(3)])
    req = signed_request(keys)
    pp = sign_message(keys, "n0", PrePrepare(view=0, sequence=1,
                                             batch_digest=b"d",
                                             batch=(req,), sender="n0"))
    prep = sign_message(keys, "n1", PbftPrepare(view=0, sequence=1,
                                                batch_digest=b"d",
                                                sender="n1"))
    ckpt = CheckpointRef(zone_id="z0", sequence=10, state_digest=b"s",
                         snapshot={"c": {"bal": 5}})
    from repro.messages import (ReadReply, ReadRequest, ReadWatermarkCert,
                                WatermarkShare, watermark_body)
    wm_body = watermark_body("z0", 4, b"s", 50.0)
    read_cert = ReadWatermarkCert(
        zone="z0", sequence=4, state_digest=b"s", watermark_ts=50.0,
        certificate=QuorumCertificate.aggregate(
            wm_body, [keys.sign(f"n{i}", wm_body) for i in range(2)]))
    samples = [
        ClientRequest(operation=("op",), timestamp=1, sender="c"),
        MigrationRequest(operation=("mig",), timestamp=1, sender="c",
                         source_zone="z0", dest_zone="z1"),
        ClientReply(view=0, timestamp=1, client_id="c", result=("ok", 1),
                    sender="n0"),
        CrossPropose(view=0, dst_ballot=ballot, dst_prev_ballot=prev,
                     request=req, cert=cert, sender="n0"),
        Prepared(view=0, src_ballot=ballot, src_prev_ballot=prev,
                 request_digest=b"d", cert=cert, sender="n0"),
        CrossCommit(view=0, dst_ballot=ballot, dst_prev_ballot=prev,
                    src_ballot=ballot, src_prev_ballot=prev, request=req,
                    cert_dst=cert, cert_src=cert, sender="n0"),
        EndorsePrePrepare(instance="i", view=0, payload=("ctx", 1),
                          endorse_digest=b"e", use_prepare=True,
                          sender="n0"),
        EndorsePrepare(instance="i", view=0, endorse_digest=b"e",
                       sender="n1"),
        EndorseVote(instance="i", view=0, endorse_digest=b"e",
                    share=keys.sign("n1", b"e"), sender="n1"),
        EndorseQuery(instance="i", view=0, sender="n3"),
        StateTransfer(view=0, ballot=ballot, clients=("c",),
                      records={"c": {"bal": 7}}, cert=cert, sender="n0"),
        PrePrepare(view=0, sequence=1, batch_digest=b"d", batch=(req,),
                   sender="n0"),
        PbftPrepare(view=0, sequence=1, batch_digest=b"d", sender="n1"),
        Commit(view=0, sequence=1, batch_digest=b"d", sender="n1"),
        CheckpointMsg(sequence=10, state_digest=b"s", sender="n1"),
        CheckpointFetch(sequence=10, sender="n2"),
        CheckpointSnapshot(sequence=10, state_digest=b"s",
                           snapshot={"c": {"bal": 5}}, sender="n1"),
        ViewChange(new_view=1, last_stable_sequence=0,
                   prepared_proofs=(PreparedProof(
                       view=0, sequence=1, batch_digest=b"d",
                       signers=("n1", "n2")),),
                   sender="n1"),
        NewView(new_view=1, view_changes=(pp,), pre_prepares=(pp,),
                sender="n2"),
        ProofFetch(view=0, sequence=1, batch_digest=b"d", sender="n2"),
        ProofReply(sequence=1, batch_digest=b"d", pre_prepare=pp,
                   prepares=(prep,), sender="n1"),
        GapReply(pre_prepare=pp, sender="n1"),
        ResponseQuery(view=0, ballot=ballot, phase="commit", sender="n0"),
        Propose(view=0, ballot=ballot, requests=(req,), cert=cert,
                sender="n0"),
        Promise(view=0, ballot=ballot, prev_ballot=prev, zone_id="z1",
                request_digest=b"d", cert=cert, sender="n4"),
        Accept(view=0, ballot=ballot, prev_ballot=prev,
               request_digest=b"d", cert=cert, sender="n0",
               requests=(req,)),
        Accepted(view=0, ballot=ballot, prev_ballot=prev, zone_id="z1",
                 request_digest=b"d", cert=cert, checkpoint=ckpt,
                 sender="n4"),
        GlobalCommit(view=0, ballot=ballot, prev_ballot=prev,
                     requests=(req,), cert=cert, checkpoints=(ckpt,),
                     sender="n0"),
        WatermarkShare(zone="z0", sequence=4, state_digest=b"s",
                       watermark_ts=50.0,
                       signature=keys.sign("n1", wm_body), sender="n1"),
        ReadRequest(operation=("balance",), timestamp=1, sender="c",
                    session=(("z0", 3),)),
        ReadReply(timestamp=1, client_id="c", status="ok",
                  result=("ok", 5), cert=read_cert, sender="n1"),
    ]
    from repro.messages.registry import WIRE_MESSAGES
    assert {type(m).__name__ for m in samples} == set(WIRE_MESSAGES)
    for message in samples:
        decoded = decode_message(encode_message(message))
        assert decoded == message, type(message).__name__
        assert _digest(decoded) == _digest(message)


def test_codec_rejects_unregistered_types():
    from repro.errors import ProtocolError
    from repro.messages.base import decode_message, encode_message

    with pytest.raises(ProtocolError):
        decode_message('{"__msg__": "EvilType", "fields": {}}')
    with pytest.raises(ProtocolError):
        encode_message(object())
    with pytest.raises(ProtocolError):
        encode_message({1: "non-str dict key"})


def test_registry_is_total_over_message_subclasses():
    """Bidirectional: registry == the set of Message subclasses."""
    import repro.messages as messages_pkg
    from repro.messages.base import Message
    from repro.messages.registry import (CLIENT_DELIVERED, NESTED_TYPES,
                                         WIRE_MESSAGES, codec_types)

    exported = {name: getattr(messages_pkg, name)
                for name in messages_pkg.__all__
                if isinstance(getattr(messages_pkg, name), type)}
    subclasses = {name for name, cls in exported.items()
                  if issubclass(cls, Message) and cls is not Message}
    assert subclasses == set(WIRE_MESSAGES)
    for name, cls in WIRE_MESSAGES.items():
        assert cls.__name__ == name
        assert issubclass(cls, Message)
    assert CLIENT_DELIVERED <= set(WIRE_MESSAGES)
    # Nested value types are decodable but never wire messages.
    assert not any(issubclass(cls, Message)
                   for cls in NESTED_TYPES.values())
    assert set(codec_types()) == set(WIRE_MESSAGES) | set(NESTED_TYPES)
