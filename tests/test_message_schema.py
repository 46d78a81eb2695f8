"""Byte identity of the message schema, pinned three ways.

Canonical bytes are what every signature and certificate in the system
covers, ``signature_units`` is what simulated CPU time is charged from,
and the wire JSON is what the codec ships — so a change to how they are
computed must not change a single byte of what they compute.

(a) golden vectors: literals generated at the commit *before* the
    per-class schema replaced the ``isinstance`` ladders;
(b) those ladders, kept here (memo reads/writes stripped so they cannot
    be satisfied by the implementation's own caches) as reference
    oracles for a hypothesis property;
(c) a short mixed run whose every delivered envelope is checked against
    the oracles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.deployment import ZiziphusConfig, build_ziziphus
from repro.crypto.certificates import QuorumCertificate
from repro.crypto.digest import canonical_bytes, digest, digest_hex
from repro.crypto.keys import KeyRegistry, Signature
from repro.crypto.threshold import ThresholdCertificate, combine_threshold
from repro.errors import CryptoError, ProtocolError
from repro.messages.base import (Signed, decode_message, encode_message,
                                 nested_signature_units, sign_message)
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
from repro.messages.registry import codec_types
from repro.messages.sync import (Accept, Accepted, Ballot, CheckpointRef,
                                 GlobalCommit, Promise, Propose)
from repro.messages.trace import SpanContext
from repro.reads import ReadConfig
from repro.sim.latency import Region
from repro.sim.process import Process
from repro.workload.driver import ClosedLoopDriver
from repro.workload.generator import WorkloadMix

from tests.conftest import fast_pbft, fast_sync


# ----------------------------------------------------------------------
# Reference oracles: the pre-schema ladders
# ----------------------------------------------------------------------

def _ref_encode(obj: Any, out: bytearray) -> None:
    if obj is None:
        out += b"N"
    elif obj is True:
        out += b"T"
    elif obj is False:
        out += b"F"
    elif isinstance(obj, Enum):
        _ref_encode(obj.value, out)
    elif isinstance(obj, int):
        raw = str(obj).encode()
        out += b"i" + struct.pack(">I", len(raw)) + raw
    elif isinstance(obj, float):
        out += b"f" + struct.pack(">d", obj)
    elif isinstance(obj, str):
        raw = obj.encode()
        out += b"s" + struct.pack(">I", len(raw)) + raw
    elif isinstance(obj, (bytes, bytearray)):
        out += b"b" + struct.pack(">I", len(obj)) + bytes(obj)
    elif isinstance(obj, (tuple, list)):
        out += b"l" + struct.pack(">I", len(obj))
        for item in obj:
            _ref_encode(item, out)
    elif isinstance(obj, (dict,)):
        items = sorted(obj.items(), key=lambda kv: reference_bytes(kv[0]))
        out += b"d" + struct.pack(">I", len(items))
        for key, value in items:
            _ref_encode(key, out)
            _ref_encode(value, out)
    elif isinstance(obj, frozenset):
        items = sorted(obj, key=reference_bytes)
        out += b"l" + struct.pack(">I", len(items))
        for item in items:
            _ref_encode(item, out)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        fields = tuple(f.name for f in dataclasses.fields(cls)
                       if f.metadata.get("digest", True))
        name = cls.__name__.encode()
        out += b"o" + struct.pack(">I", len(name)) + name
        out += struct.pack(">I", len(fields))
        for field_name in fields:
            _ref_encode(field_name, out)
            _ref_encode(getattr(obj, field_name), out)
    else:
        raise CryptoError(f"cannot canonically encode {type(obj).__name__}")


def reference_bytes(obj: Any) -> bytes:
    out = bytearray()
    _ref_encode(obj, out)
    return bytes(out)


def reference_units(obj: Any) -> int:
    if isinstance(obj, Signature):
        return 1
    if isinstance(obj, QuorumCertificate):
        return len(obj.signatures)
    if isinstance(obj, ThresholdCertificate):
        return 1
    if isinstance(obj, Signed):
        return 1 + reference_units(obj.payload)
    if isinstance(obj, (tuple, list)):
        return sum(reference_units(item) for item in obj)
    if isinstance(obj, dict):
        return sum(reference_units(v) for v in obj.values())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(reference_units(getattr(obj, f.name))
                   for f in dataclasses.fields(type(obj)))
    return 0


def _reference_walk(obj: Any) -> tuple[bytes, int]:
    return reference_bytes(obj), reference_units(obj)


def _walked(obj: Any) -> tuple[bytes, int]:
    """What the schema makes of ``obj`` — asked twice, so that the second
    answer comes from whatever the first one memoised."""
    first = canonical_bytes(obj), nested_signature_units(obj)
    assert (canonical_bytes(obj), nested_signature_units(obj)) == first
    return first


def _ref_wire_value(obj: Any) -> Any:
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, bytes):
        return {"__bytes__": obj.hex()}
    if isinstance(obj, tuple):
        return {"__tuple__": [_ref_wire_value(item) for item in obj]}
    if isinstance(obj, frozenset):
        return {"__frozenset__": sorted(_ref_wire_value(item) for item in obj)}
    if isinstance(obj, list):
        return [_ref_wire_value(item) for item in obj]
    if isinstance(obj, dict):
        encoded: dict[str, Any] = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ProtocolError("wire dicts must be keyed by str")
            encoded[key] = _ref_wire_value(value)
        return {"__map__": encoded}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__msg__": type(obj).__name__,
            "fields": {f.name: _ref_wire_value(getattr(obj, f.name))
                       for f in dataclasses.fields(type(obj))},
        }
    raise ProtocolError(f"cannot encode {type(obj).__name__} for the wire")


def reference_wire(obj: Any) -> str:
    return json.dumps(_ref_wire_value(obj), sort_keys=True,
                      separators=(",", ":"))


# ----------------------------------------------------------------------
# (a) Golden vectors
# ----------------------------------------------------------------------

class Colour(Enum):
    RED = 1


class Level(IntEnum):
    HIGH = 3


class Point(NamedTuple):
    x: int
    y: str


@dataclass(frozen=True)
class Tagged:
    x: int
    note: str = field(default="", metadata={"digest": False})


def _one_of_every_codec_type() -> dict[str, Any]:
    keys = KeyRegistry(seed=12)
    body = digest(("body", 1))
    members = ("z0n0", "z0n1", "z0n2", "z0n3")
    cert = QuorumCertificate.aggregate(
        body, [keys.sign(m, body) for m in members[:3]])
    threshold = combine_threshold(
        keys, body, [keys.sign(m, body) for m in members[:3]],
        frozenset(members), 3)
    ballot, prev = Ballot(2, "z1"), Ballot(1, "z0")
    span = SpanContext(trace_id="c1:4", parent="pbft")
    request = ClientRequest(operation=("deposit", 5), timestamp=4,
                            sender="c1", ctx=span)
    migration = MigrationRequest(
        operation=("migrate", "c1", "z0", "z1"), timestamp=5, sender="c1",
        source_zone="z0", dest_zone="z1")
    req_env = sign_message(keys, "c1", request)
    mig_env = sign_message(keys, "c1", migration)
    pre_prepare = PrePrepare(view=0, sequence=7, batch_digest=body,
                             batch=(req_env, mig_env), sender="z0n0")
    pp_env = sign_message(keys, "z0n0", pre_prepare)
    prepare = Prepare(view=0, sequence=7, batch_digest=body, sender="z0n1")
    prep_env = sign_message(keys, "z0n1", prepare)
    proof = PreparedProof(view=0, sequence=7, batch_digest=body,
                          signers=("z0n1", "z0n2"))
    view_change = ViewChange(new_view=1, last_stable_sequence=0,
                             prepared_proofs=(proof,), sender="z0n2")
    ref = CheckpointRef(zone_id="z1", sequence=64, state_digest=body,
                        snapshot={"acct/c1": 10, "acct/c2": (1, "x")})
    watermark = ReadWatermarkCert(zone="z0", sequence=9, state_digest=body,
                                  watermark_ts=150.0, certificate=cert)
    instances = [
        request, migration,
        ClientReply(view=0, timestamp=4, client_id="c1",
                    result=("ok", 15), sender="z0n0"),
        CrossPropose(view=0, dst_ballot=ballot, dst_prev_ballot=prev,
                     request=mig_env, cert=cert, sender="z1n0"),
        Prepared(view=0, src_ballot=ballot, src_prev_ballot=prev,
                 request_digest=body, cert=cert, sender="z0n0"),
        CrossCommit(view=0, dst_ballot=ballot, dst_prev_ballot=prev,
                    src_ballot=prev, src_prev_ballot=Ballot(0, ""),
                    request=mig_env, cert_dst=cert, cert_src=threshold,
                    sender="z1n0"),
        EndorsePrePrepare(instance="acc:2", view=0,
                          payload={"ballot": ballot, "reqs": (mig_env,)},
                          endorse_digest=body, use_prepare=True,
                          sender="z0n0"),
        EndorsePrepare(instance="acc:2", view=0, endorse_digest=body,
                       sender="z0n1"),
        EndorseVote(instance="acc:2", view=0, endorse_digest=body,
                    share=keys.sign("z0n1", body), sender="z0n1"),
        EndorseQuery(instance="acc:2", view=0, sender="z0n3"),
        StateTransfer(view=0, ballot=ballot, clients=("c1",),
                      records={"c1": {"acct/c1": 10}}, cert=threshold,
                      sender="z0n0"),
        pre_prepare, prepare,
        Commit(view=0, sequence=7, batch_digest=body, sender="z0n1"),
        CheckpointMsg(sequence=64, state_digest=body, sender="z0n1"),
        CheckpointFetch(sequence=64, sender="z0n3"),
        CheckpointSnapshot(sequence=64, state_digest=body,
                           snapshot={"acct/c1": 10}, sender="z0n0"),
        view_change,
        NewView(new_view=1,
                view_changes=(sign_message(keys, "z0n2", view_change),),
                pre_prepares=(pp_env,), sender="z0n1"),
        ProofFetch(view=0, sequence=7, batch_digest=body, sender="z0n1"),
        ProofReply(sequence=7, batch_digest=body, pre_prepare=pp_env,
                   prepares=(prep_env, prep_env), sender="z0n2"),
        GapReply(pre_prepare=pp_env, sender="z0n2"),
        ResponseQuery(view=0, ballot=ballot, phase="commit",
                      sender="z1n2"),
        Propose(view=0, ballot=ballot, requests=(mig_env,), cert=cert,
                sender="z0n0"),
        Promise(view=0, ballot=ballot, prev_ballot=prev, zone_id="z1",
                request_digest=body, cert=cert, sender="z1n0"),
        Accept(view=0, ballot=ballot, prev_ballot=prev, request_digest=body,
               cert=threshold, sender="z0n0", requests=(mig_env,)),
        Accepted(view=0, ballot=ballot, prev_ballot=prev, zone_id="z1",
                 request_digest=body, cert=cert, checkpoint=ref,
                 sender="z1n0"),
        GlobalCommit(view=0, ballot=ballot, prev_ballot=prev,
                     requests=(mig_env,), cert=cert, checkpoints=(ref,),
                     sender="z0n0"),
        WatermarkShare(zone="z0", sequence=9, state_digest=body,
                       watermark_ts=150.0, signature=keys.sign("z0n1", body),
                       sender="z0n1"),
        ReadRequest(operation=("balance",), timestamp=6, sender="c1",
                    session=(("z0", 9),)),
        ReadReply(timestamp=6, client_id="c1", status="ok", result=15,
                  cert=watermark, sender="z0n1",
                  proof=bytes((1, 1)) + b"\x07" * 32),
        req_env, keys.sign("z0n1", body), cert, threshold, ballot, ref,
        proof, span, watermark,
    ]
    return {type(obj).__name__: obj for obj in instances}


def _edge_values() -> dict[str, Any]:
    return {
        "true": True,
        "one": 1,
        "region": Region.CALIFORNIA,
        "plain_enum": Colour.RED,
        "int_enum": Level.HIGH,
        "named_tuple": Point(1, "a"),
        "bytearray": bytearray(b"\x00\xff"),
        "ordered_dict": OrderedDict([("b", 1), ("a", 2)]),
        "default_dict": defaultdict(list, {"k": [1]}),
        "int_keyed_dict": {10: "x", 9: "y", -1: "z"},
        "mixed_keyed_dict": {"1": "s", 1: "i", b"1": "b", (1,): "t"},
        "nested_frozenset": frozenset({frozenset({2, 1}), frozenset({3})}),
        "negative_int": -12345,
        "huge_int": 2**63 + 7,
        "float": -0.5,
        "empty_tuple": (),
        "list_of_none": [None, False],
        "digest_false_field": Tagged(1, note="not hashed"),
    }


GOLDEN_DIGESTS = {
    "Accept":
        "cbf3e9fd9a1ecde9ae51c01dd5ddf9a22986b822f3a354239666609b18e334bd",
    "Accepted":
        "6a503dff61b202bd06db29893d6506996f6066850bbd52c3818c2a9d8bf43f09",
    "Ballot":
        "705c9887fe6fec085f4734b4a8343ddd90333c4806fa7df3eb232a8ef9fb9c2b",
    "CheckpointFetch":
        "b99bf0f9fc786404b437c863db98f592515dbd7089ea1b00a5cb942b93a00f88",
    "CheckpointMsg":
        "7cb97fcec8ee3cd12eae76be1f2c339cf7b7de9c043669b3506668afa09cfe68",
    "CheckpointRef":
        "c27ee03f83ff19067d16bc91555702e62d8fbc5c14eb46d25a1bc8dac863f084",
    "CheckpointSnapshot":
        "c59588d19e4bc4c01126a72e6ad3215a6f692a1e39a818b5f78111aebb5da3cb",
    "ClientReply":
        "b80792ed82b58f9ae9167e3022f08c84d1c1060abea1b5d8d35c11b3445b99bb",
    "ClientRequest":
        "4584a403a442adb43f1b139c7a73e4350a5ff4dd8f3ba911d391f7bc5b63b8b1",
    "Commit":
        "cf13eebff96c43a9f29b04eedfa4149818ba749c7b9ea31ae63a0ffc9cffa105",
    "CrossCommit":
        "cd505710a192c77ca72c30fef5f21f5643784a237d99f2ba96de663e0ad20a24",
    "CrossPropose":
        "6c577043b6885c1b5b7a1466abfcc23b9fe896e0f974aac744395943c24c0e93",
    "EndorsePrePrepare":
        "266c6980c8af46afd99dc4e8c190f1666086c519eb8c14b2f11a9d867382d94b",
    "EndorsePrepare":
        "0a121f5aace880d10feb6f8620e62a4294c42729d8e4547fac35ef15fa778e0d",
    "EndorseQuery":
        "fdf84eca31de43618458ceb2e9425180e040b6bf326bd25649941354198d4d73",
    # Re-pinned when the leader began to send its certificate in an
    # ``EndorseVote``: the new ``cert`` field (``None`` on a vote) is
    # part of the canonical bytes.
    "EndorseVote":
        "cd298a86fd3daabfd1a0f85f5edc50738aac57dc96dec475dcefe2e4b67b3b18",
    # New with the answer to a gap ask no snapshot covers (one per slot
    # the sender executed).
    "GapReply":
        "6719bf2e9151b6e67067cfe6d01a4f96d2a0f4091e4520e8b111d45889cd2908",
    "GlobalCommit":
        "9f6b4b386f460f2469780363ee54286408ef9949e06124dca780de5cf9df6099",
    "MigrationRequest":
        "bc6aad01b9dff1effe13a40e37355bace4ed532d2c9bd767d90839dd8a8bc778",
    # Re-pinned when a prepared proof became a reference (view, sequence,
    # batch digest, signers): the VIEW-CHANGE it holds changed.
    "NewView":
        "e4675e6cb97639bde0f8239708c3bc409f0e9f2df69a44e3a1187e8ae2e5518e",
    # Re-pinned when a pre-prepare's batch left its digest.
    "PrePrepare":
        "69259f708466ec0ade1118922d2b06e3040f2b75cbe7ce58c4e5040d8e57be00",
    "Prepare":
        "eb90f2a486f8ef361267ecd4c1731abc07385fab941bab31f7e19dc0b2c4ffb3",
    "Prepared":
        "e8638b11f80e7d3982fbf2f206a14ccf8166ddd6ab4263d479410dfa9c7be212",
    # Re-pinned when a prepared proof became a reference: its fields are
    # (view, sequence, batch digest, signers), not signed envelopes.
    "PreparedProof":
        "de95e4cf198bf1a4c7a50c3b6a0c3409b051dd311eee83b97b82f0384fe7c943",
    # New with the proof fetch pair, which replaced BatchFetch /
    # BatchReply.
    "ProofFetch":
        "2829cf2ff4d95a33deff61591a0f928cbb0af76f3aa51be5de955e04afeb9717",
    "ProofReply":
        "247727055760e3d5205cfb427a15be26592ae2d70a5a3b4cb14e5e79c103184e",
    "Promise":
        "700517d4f282da19cbfcbccb3c958937c0bfabc92dc1b70a5701542a23b37e1d",
    "Propose":
        "5a6ffe6029a10ac0c732498e6205c7ebee3696a1ac15348ee9ba069df69707ec",
    "QuorumCertificate":
        "74fa03e0d802cdd5c0e174688a3cdf1fc7489a304e536e175606141253dfcc51",
    # Generated again when a served read began to carry its Merkle proof
    # (the new ``proof`` field; every other type is as it was).
    "ReadReply":
        "1646585c8246a522941387590553b4e52943256fb824a4a376d293a76c1aec36",
    "ReadRequest":
        "7ab421cda285e6c4eec5ff0e0c260857fa096bd903e121f99d948e72f997695c",
    "ReadWatermarkCert":
        "a97b515f3bf3a9277f3dbd975ada0de2f9009cdbc93bd704c3162b9e7867b5f5",
    # Re-pinned when a query came to name only its ballot and phase (its
    # request digest and zone went: the signer's zone is the querier's).
    "ResponseQuery":
        "2099f9d1a8bf917a6e6559794a04d691b0238465d8824c5315289ac3070877aa",
    "Signature":
        "677bc9962070685a5ce38f7c6626c12c14c69d00dce2ee4ab994949ea460b09b",
    "Signed":
        "cc02cec78abdeaf1ff9ba352642de38b85ac3c289b7135eba0ea98c71b849924",
    "SpanContext":
        "949a8fec1ea21a7ce84623a97753f4b0af13440102005c24059218d39886c38b",
    "StateTransfer":
        "269dc3c6d25c9debf031a8ed4fd8662f2fffac6ca09c27f7d63e199f1bcd2f5d",
    "ThresholdCertificate":
        "786b188e3c208f541a80e151772b185628919387d3cc19f980cb1d1af9874bce",
    # Re-pinned with PreparedProof, which it holds.
    "ViewChange":
        "5877a6ac5a531af269f898894329e0fd370496324894b96a7f4f721e19bff07b",
    "WatermarkShare":
        "90d9309805646b4e78bfa725c187769dd9e99d132f0a2e6497a01db0c53741ce",
}

EDGE_CASES = {
    "true": "54",
    "one": "690000000131",
    "region": "73000000024341",
    "plain_enum": "690000000131",
    "int_enum": "690000000133",
    "named_tuple": "6c00000002690000000131730000000161",
    "bytearray": "620000000200ff",
    "ordered_dict":
        "6400000002730000000161690000000132730000000162690000000131",
    "default_dict": "640000000173000000016b6c00000001690000000131",
    "int_keyed_dict":
        "640000000369000000013973000000017969000000022d3173000000017a6900"
        "0000023130730000000178",
    "mixed_keyed_dict":
        "64000000046200000001317300000001626900000001317300000001696c0000"
        "0001690000000131730000000174730000000131730000000173",
    "nested_frozenset":
        "6c000000026c000000016900000001336c000000026900000001316900000001"
        "32",
    "negative_int": "69000000062d3132333435",
    "huge_int": "690000001339323233333732303336383534373735383135",
    "float": "66bfe0000000000000",
    "empty_tuple": "6c00000000",
    "list_of_none": "6c000000024e46",
    "digest_false_field":
        "6f0000000654616767656400000001730000000178690000000131",
}


def test_golden_covers_every_codec_type():
    assert set(_one_of_every_codec_type()) == set(codec_types())
    assert set(GOLDEN_DIGESTS) == set(codec_types())


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_golden_digest_of_every_codec_type(name):
    assert digest_hex(_one_of_every_codec_type()[name]) == GOLDEN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_golden_canonical_bytes_of_edge_cases(name):
    assert canonical_bytes(_edge_values()[name]).hex() == EDGE_CASES[name]


def test_golden_instances_round_trip_and_match_the_oracles():
    for obj in _one_of_every_codec_type().values():
        assert _walked(obj) == _reference_walk(obj)
        assert encode_message(obj) == reference_wire(obj)
        assert decode_message(encode_message(obj)) == obj


# ----------------------------------------------------------------------
# (b) Hypothesis: the schema against the ladders
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Leaf:
    a: Any
    b: Any = field(default=None, metadata={"digest": False})


@dataclass(frozen=True)
class Pair:
    left: Any
    right: Any


@dataclass
class Mutable:
    x: Any


@dataclass(frozen=True, slots=True)
class Slotted:
    x: Any


_KEYS = KeyRegistry(seed=5)
_SIG = _KEYS.sign("n0", b"\x01" * 32)
_CERT = QuorumCertificate(b"\x01" * 32,
                          (_SIG, _KEYS.sign("n1", b"\x01" * 32)))
_THRESHOLD = ThresholdCertificate(b"\x01" * 32, frozenset({"n0", "n1"}), 2,
                                  b"\x02" * 32)

_hashable = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70),
    st.floats(allow_nan=False), st.text(max_size=12), st.binary(max_size=12),
    st.sampled_from([Region.CALIFORNIA, Colour.RED, Level.HIGH]))
_leaves = st.one_of(
    _hashable, st.binary(max_size=4).map(bytearray),
    st.sampled_from([_SIG, _CERT, _THRESHOLD, Point(1, "p")]))
_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(st.integers(-50, 50), children, max_size=3),
        st.dictionaries(st.text(max_size=4), children,
                        max_size=3).map(OrderedDict),
        st.frozensets(_hashable, max_size=4),
        st.frozensets(st.frozensets(st.integers(0, 9), max_size=3),
                      max_size=3),
        st.builds(Leaf, children, children),
        st.builds(Pair, children, children),
        st.builds(Mutable, children),
        st.builds(Slotted, children),
        st.builds(Signed, children, st.just(_SIG))),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_property_canonical_bytes_equal_the_ladder(value):
    expected = reference_bytes(value)
    assert canonical_bytes(value) == expected
    # Again, now that frozen instances inside carry their memos.
    assert canonical_bytes(value) == expected
    assert digest(value) == hashlib.sha256(expected).digest()


@settings(max_examples=300, deadline=None)
@given(_values)
def test_property_signature_units_equal_the_ladder(value):
    # The bytes and the count; a memo hit must yield the same pair.
    assert _walked(value) == _reference_walk(value)
    assert _walked(Pair(value, value)) == _reference_walk(Pair(value, value))


#: DESIGN.md §10's precedence cases, each holding something to count.
_PRECEDENCE_CASES = {
    "bool_before_int": (True, 1, _SIG),
    "enum_mix_ins": [Region.OHIO, Colour.RED, Level.HIGH, _CERT],
    "named_tuple": Point(_SIG, "p"),
    "ordered_dict": OrderedDict([("b", _CERT), ("a", (_SIG, 2))]),
    "dict_keys_are_not_counted": {_SIG: 1, "k": _SIG},
    "frozenset_is_a_leaf": (frozenset({_SIG}), _SIG),
    "digest_false_field_holding_a_certificate": Leaf(1, b=_CERT),
    "digest_false_field_inside_a_sequence": [Leaf(_SIG, b=(_CERT, _SIG))],
    "nested_signed": Signed(Signed(Leaf(_THRESHOLD), _SIG), _SIG),
    "slots_dataclass": Slotted((_CERT, Slotted(_SIG))),
    "mutable_dataclass": Mutable([_CERT, Mutable(_SIG)]),
    "bytearray": (bytearray(b"\x01"), _SIG),
}


@pytest.mark.parametrize("name", sorted(_PRECEDENCE_CASES))
def test_units_of_every_precedence_case_equal_the_ladder(name):
    value = _PRECEDENCE_CASES[name]
    assert reference_units(value) > 0
    assert _walked(value) == _reference_walk(value)
    # Inside an envelope and inside a memoising parent, too.
    envelope = sign_message(_KEYS, "n0", value)
    assert envelope.signature_units() == 1 + reference_units(value)
    assert _walked(Pair(value, envelope)) == \
        _reference_walk(Pair(value, envelope))


def test_a_mutated_value_is_walked_afresh():
    held = Mutable([_SIG])
    parent = Slotted(held)
    assert _walked(parent) == _reference_walk(parent)
    held.x.append(_CERT)
    assert _walked(parent) == _reference_walk(parent)
    assert nested_signature_units(parent) == 3


@settings(max_examples=300, deadline=None)
@given(_values)
def test_property_wire_json_equals_the_ladder(value):
    try:
        expected = reference_wire(value)
    except (ProtocolError, TypeError) as refused:
        # TypeError: a frozenset whose wire forms do not order (bytes
        # beside ints); the ladder let ``sorted`` raise and so must we.
        with pytest.raises(type(refused)):
            encode_message(value)
    else:
        assert encode_message(value) == expected


@pytest.mark.parametrize("value", [object(), {1, 2}, 1j, Leaf, range(3)])
def test_types_outside_the_schema_are_rejected_not_guessed(value):
    with pytest.raises(CryptoError):
        canonical_bytes(value)
    with pytest.raises(CryptoError):
        canonical_bytes((1, [value]))
    with pytest.raises(ProtocolError):
        encode_message(value)
    assert nested_signature_units(value) == 0


def test_wire_rejects_what_the_ladder_rejected():
    for value in (Colour.RED, bytearray(b"x"), {1: "x"}):
        with pytest.raises(ProtocolError):
            encode_message(Leaf(value))
    # str/int mix-in enums and NamedTuples ride as their base type.
    assert encode_message(Leaf(Region.OHIO)) == reference_wire(Leaf("OH"))
    assert encode_message(Point(1, "a")) == reference_wire((1, "a"))


# ----------------------------------------------------------------------
# (c) Every envelope of a live mixed run
# ----------------------------------------------------------------------

def test_every_delivered_envelope_matches_the_oracles(monkeypatch):
    delivered: dict[int, Any] = {}
    charged: list[tuple[Any, float]] = []
    deliver = Process.deliver

    def tap(self, sender, message):
        delivered.setdefault(id(message), message)
        before = self.cpu_time_ms
        deliver(self, sender, message)
        cost = self.cost_model
        if not self.crashed and cost.verify_ms:
            # What the hop charged, back in signature verifications.
            charged.append((message, (self.cpu_time_ms - before
                                      - cost.base_ms) / cost.verify_ms))

    monkeypatch.setattr(Process, "deliver", tap)
    config = ZiziphusConfig(num_zones=3, f=1, seed=7, pbft=fast_pbft(),
                            sync=fast_sync(), read=ReadConfig(enabled=True))
    deployment = build_ziziphus(config)
    driver = ClosedLoopDriver(
        deployment, WorkloadMix(global_fraction=0.3, read_fraction=0.3),
        clients_per_zone=4, seed=7)
    driver.start()
    deployment.sim.run(until=300.0)

    kinds = {type(env.payload).__name__ for env in delivered.values()}
    assert {"PrePrepare", "EndorseVote", "Accept", "GlobalCommit",
            "StateTransfer", "ReadReply", "WatermarkShare"} <= kinds
    assert len(delivered) > 1000
    for envelope in delivered.values():
        assert envelope.signature_units() == reference_units(envelope)
        payload = envelope.payload
        assert digest(payload) == \
            hashlib.sha256(reference_bytes(payload)).digest()
        assert canonical_bytes(envelope) == reference_bytes(envelope)
        assert encode_message(envelope) == reference_wire(envelope)
    # Every delivery — the first of an envelope and each one after — is
    # charged the outer signature plus what the payload holds.
    assert len(charged) > 2 * len(delivered)
    for envelope, units in charged:
        assert units == pytest.approx(1 + reference_units(envelope.payload),
                                      abs=1e-6)
