"""Soundness tests for what the crypto hot path remembers.

Nothing in ``crypto/`` keeps a table: a verdict is recorded on the frozen
object it judges (a signature, a threshold certificate, an envelope) and
must be a pure accelerator — every adversarial input that failed before
must still fail after a *valid* sibling was recorded, no record may answer
for another registry, digest or instance, and a malformed input is an
invalid one, never an exception.
"""

import copy
import dataclasses
import gc
import hmac
import re
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import pytest

from repro.consensus import pbft_profile
from repro.core.zone import ZoneDirectory, ZoneInfo
from repro.crypto.certificates import CertificateVerifier, QuorumCertificate
from repro.crypto.digest import canonical_bytes, digest
from repro.crypto.keys import KeyRegistry, Signature
from repro.crypto.threshold import (ThresholdCertificate, ThresholdVerifier,
                                    combine_threshold)
from repro.errors import CryptoError, InvalidCertificateError
from repro.messages.base import (Signed, nested_signature_units, sign_message,
                                 verify_signed)
from repro.messages.client import ClientReply, ClientRequest
from repro.messages.endorse import EndorseVote
from repro.messages.sync import Accept, Ballot, GENESIS_BALLOT, accept_body
from repro.obs.bus import Instrumentation
from repro.obs.monitor import ProtocolMonitor
from repro.pbft.client import PBFTClient
from repro.pbft.faults import BEHAVIOR_NAMES, Behavior, make_behavior
from repro.pbft.host import HostNode
from repro.reads import ReadConfig
from repro.sim.events import Simulator
from repro.sim.latency import Region
from repro.sim.network import Network
from repro.workload.driver import ClosedLoopDriver
from repro.workload.generator import WorkloadMix

from tests.conftest import drive_to_completion, small_ziziphus


def _cert(keys, members, quorum, payload_digest):
    return QuorumCertificate.aggregate(
        payload_digest, [keys.sign(m, payload_digest)
                         for m in members[:quorum]])


def test_forged_tag_rejected_after_valid_signature_recorded():
    keys = KeyRegistry(seed=1)
    payload_digest = b"\x01" * 32
    good = keys.sign("n0", payload_digest)
    # Record the honest verification on the genuine signature.
    assert keys.verify(good, payload_digest)
    # Same signer, same digest, forged tag: no record answers for it.
    forged = Signature(signer="n0", tag=b"\xff" * 32)
    assert not keys.verify(forged, payload_digest)
    # And the failure is not remembered, nor does it touch the record.
    assert keys.verify(good, payload_digest)
    assert not keys.verify(forged, payload_digest)


def test_forged_helper_still_rejected_repeatedly():
    keys = KeyRegistry(seed=2)
    payload_digest = digest(("op", 1))
    assert keys.verify(keys.sign("n3", payload_digest), payload_digest)
    for _ in range(3):
        assert not keys.verify(keys.forged("n3"), payload_digest)


def test_verify_record_does_not_leak_across_registries():
    a = KeyRegistry(seed=1)
    b = KeyRegistry(seed=2)
    payload_digest = b"\x07" * 32
    sig = a.sign("n0", payload_digest)
    assert a.verify(sig, payload_digest)
    # Registry ``b`` derives a different secret for n0, so ``a``'s
    # signature must not validate there — recorded or not.
    assert not b.verify(sig, payload_digest)
    assert a.verify(sig, payload_digest)


def test_signing_same_digest_twice_returns_equal_signature():
    keys = KeyRegistry(seed=3)
    payload_digest = b"\x0a" * 32
    first = keys.sign("n1", payload_digest)
    second = keys.sign("n1", payload_digest)
    assert first == second
    assert keys.verify(second, payload_digest)


def test_certificate_verdict_follows_content_not_identity():
    members = ("n0", "n1", "n2", "n3")
    quorum = 3
    keys = KeyRegistry(seed=4)
    verifier = CertificateVerifier(keys)
    payload_digest = b"\x11" * 32
    good = _cert(keys, members, quorum, payload_digest)
    verifier.validate(good, quorum, frozenset(members))
    # An equivocating twin: same digest, one signature swapped for a
    # forgery. Equal-looking but different content — nothing recorded
    # while checking the good certificate may answer for it.
    bad = QuorumCertificate(
        payload_digest=payload_digest,
        signatures=good.signatures[:-1] + (keys.forged(members[quorum - 1]),))
    with pytest.raises(InvalidCertificateError):
        verifier.validate(bad, quorum, frozenset(members))
    # Re-validating both keeps giving the same answers (recorded paths).
    verifier.validate(good, quorum, frozenset(members))
    with pytest.raises(InvalidCertificateError):
        verifier.validate(bad, quorum, frozenset(members))


def test_certificate_equivocation_different_digest_fails():
    members = ("n0", "n1", "n2", "n3")
    quorum = 3
    keys = KeyRegistry(seed=5)
    verifier = CertificateVerifier(keys)
    good = _cert(keys, members, quorum, b"\x22" * 32)
    verifier.validate(good, quorum, frozenset(members))
    # Same signature vector re-bound to a conflicting digest: the tags
    # no longer match the digest, so validation must fail.
    equivocated = dataclasses.replace(good, payload_digest=b"\x33" * 32)
    with pytest.raises(InvalidCertificateError):
        verifier.validate(equivocated, quorum, frozenset(members))


def test_certificate_verdict_does_not_leak_across_verifiers():
    members = ("n0", "n1", "n2", "n3")
    quorum = 3
    trusted = KeyRegistry(seed=6)
    other = KeyRegistry(seed=7)
    cert = _cert(trusted, members, quorum, b"\x44" * 32)
    CertificateVerifier(trusted).validate(cert, quorum, frozenset(members))
    with pytest.raises(InvalidCertificateError):
        CertificateVerifier(other).validate(cert, quorum,
                                            frozenset(members))


def test_threshold_fabricated_tag_fails_after_valid_sealed():
    members = frozenset(f"n{i}" for i in range(4))
    threshold = 3
    keys = KeyRegistry(seed=8)
    verifier = ThresholdVerifier(keys)
    payload_digest = b"\x55" * 32
    shares = [keys.sign(m, payload_digest)
              for m in sorted(members)[:threshold]]
    good = combine_threshold(keys, payload_digest, shares, members,
                             threshold)
    verifier.validate(good)
    fabricated = dataclasses.replace(good, tag=b"\x00" * 32)
    with pytest.raises(InvalidCertificateError):
        verifier.validate(fabricated)
    verifier.validate(good)


def test_signers_follow_the_signature_vector():
    keys = KeyRegistry(seed=9)
    payload_digest = b"\x66" * 32
    cert = _cert(keys, ("n0", "n1", "n2", "n3"), 3, payload_digest)
    assert cert.signers == frozenset({"n0", "n1", "n2"})
    wider = dataclasses.replace(
        cert, signatures=cert.signatures + (keys.sign("n3", payload_digest),))
    assert wider.signers == frozenset({"n0", "n1", "n2", "n3"})
    assert cert.signers == frozenset({"n0", "n1", "n2"})


def test_canonical_digest_memo_survives_replace():
    request = ClientRequest(operation=("put", "k", 1), timestamp=1,
                            sender="c0")
    first = digest(request)
    # Prime the canonical-bytes memo, then derive a sibling via replace:
    # the sibling is a fresh instance (no memo attrs) and must digest to
    # its own value.
    assert digest(request) == first
    sibling = dataclasses.replace(request, timestamp=2)
    assert digest(sibling) != first
    assert digest(request) == first


# ----------------------------------------------------------------------
# The seal: an envelope is vouched for by the registry that made it
# ----------------------------------------------------------------------

@dataclass
class MutablePayload:
    sender: str
    value: Any


@dataclass(frozen=True, slots=True)
class SlottedPayload:
    sender: str
    value: Any


def _request(sender="n0", timestamp=1):
    return ClientRequest(operation=("put", "k", 1), timestamp=timestamp,
                         sender=sender)


def _verdict(keys, envelope):
    """``(verify_signed's answer, how often it entered keys.verify)``."""
    entered = []
    verify = keys.verify
    keys.verify = lambda *args: entered.append(args) or verify(*args)
    try:
        return verify_signed(keys, envelope), len(entered)
    finally:
        del keys.verify


def test_sealed_envelope_is_vouched_by_its_own_registry_only():
    keys, twin, stranger = (KeyRegistry(seed=1), KeyRegistry(seed=1),
                            KeyRegistry(seed=2))
    envelope = sign_message(keys, "n0", _request())
    assert _verdict(keys, envelope) == (True, 0)
    assert _verdict(keys, envelope) == (True, 0)
    # Same seed, another object: the full check, which then vouches.
    assert _verdict(twin, envelope) == (True, 1)
    assert _verdict(twin, envelope) == (True, 0)
    # ... and the first registry is asked again, not trusted blindly.
    assert _verdict(keys, envelope) == (True, 1)
    # A foreign PKI never accepts it, however often it is asked.
    assert _verdict(stranger, envelope) == (False, 1)
    assert _verdict(stranger, envelope) == (False, 1)
    assert _verdict(keys, envelope) == (True, 0)


def _unsealed_cases(keys):
    """``name -> (envelope, verdict, keys.verify entries of the first
    check, and of the second)``."""
    sealed = sign_message(keys, "n0", _request())
    other = sign_message(keys, "n0", _request(timestamp=2))
    mutated = sign_message(keys, "n0", MutablePayload("n0", 1))
    mutated.payload.value = 2
    return {
        "forged": (Signed(_request(), keys.forged("n0")), False, 1, 1),
        "signature_moved_to_another_payload":
            (Signed(other.payload, sealed.signature), False, 1, 1),
        "replace_payload":
            (dataclasses.replace(sealed, payload=other.payload), False, 1, 1),
        "replace_signature":
            (dataclasses.replace(sealed, signature=keys.forged("n0")),
             False, 1, 1),
        # Valid, so the first full check vouches for the new instance.
        "replace_with_the_same_parts":
            (dataclasses.replace(sealed, payload=sealed.payload), True, 1, 0),
        # Refused by the sender claim, before the signature is looked at.
        "sender_is_not_the_signer":
            (sign_message(keys, "n1", _request(sender="n0")), False, 0, 0),
        # Valid, but nothing keeps the payload what was signed.
        "mutable_payload":
            (sign_message(keys, "n0", MutablePayload("n0", 1)), True, 1, 1),
        "mutable_payload_mutated_after_sealing": (mutated, False, 1, 1),
        "slots_payload":
            (sign_message(keys, "n0", SlottedPayload("n0", 1)), True, 1, 1),
    }


@pytest.mark.parametrize("name", sorted(_unsealed_cases(KeyRegistry())))
def test_envelopes_made_any_other_way_take_the_full_check(name):
    keys = KeyRegistry(seed=3)
    envelope, valid, first, again = _unsealed_cases(keys)[name]
    assert _verdict(keys, envelope) == (valid, first)
    assert _verdict(keys, envelope) == (valid, again)


def test_hand_made_envelope_is_vouched_only_after_a_successful_check():
    keys = KeyRegistry(seed=4)
    payload = _request()
    good = Signed(payload, keys.sign("n0", digest(payload)))
    bad = Signed(payload, keys.forged("n0"))
    assert _verdict(keys, bad) == (False, 1)
    assert _verdict(keys, good) == (True, 1)
    assert _verdict(keys, good) == (True, 0)
    assert _verdict(keys, bad) == (False, 1)
    # An envelope that was encoded first (nested in a batch, say) has a
    # memo already; that alone vouches for nothing.
    nested = Signed(payload, keys.forged("n0"))
    digest((nested,))
    assert _verdict(keys, nested) == (False, 1)
    assert nested.signature_units() == good.signature_units() == 1


def test_seal_across_copies():
    keys = KeyRegistry(seed=5)
    envelope = sign_message(keys, "n0", _request())
    assert _verdict(keys, copy.copy(envelope)) == (True, 0)
    # A deep copy carries a copy of the registry, which is not ``keys``.
    assert _verdict(keys, copy.deepcopy(envelope)) == (True, 1)


# ----------------------------------------------------------------------
# The same record one level down: a signature and a threshold certificate
# are vouched for by the registry that found them valid (or combined them)
# ----------------------------------------------------------------------

GROUP = frozenset(f"n{i}" for i in range(4))


def _asked(check, *args):
    """``(check(*args), how often it entered the HMAC)``."""
    entered = []
    real = hmac.digest
    hmac.digest = lambda *given: entered.append(given) or real(*given)
    try:
        return check(*args), len(entered)
    finally:
        hmac.digest = real


def _combined(keys, payload_digest=b"\x55" * 32):
    shares = [keys.sign(member, payload_digest)
              for member in sorted(GROUP)[:3]]
    return combine_threshold(keys, payload_digest, shares, GROUP, 3)


class SubSignature(Signature):
    pass


@dataclass(frozen=True, slots=True)
class SlottedSignature:
    signer: str
    tag: bytes


class SubCertificate(ThresholdCertificate):
    pass


@dataclass(frozen=True, slots=True)
class SlottedCertificate:
    payload_digest: bytes
    group: frozenset
    threshold: int
    tag: bytes


def _parts(obj):
    return {field.name: getattr(obj, field.name)
            for field in dataclasses.fields(obj)}


def test_signature_is_vouched_by_the_registry_that_checked_it_only():
    keys, twin, stranger = (KeyRegistry(seed=1), KeyRegistry(seed=1),
                            KeyRegistry(seed=2))
    payload_digest = digest(("op", 1))
    signature = keys.sign("n0", payload_digest)
    # Signing records nothing: the first check is the full one.
    assert _asked(keys.verify, signature, payload_digest) == (True, 1)
    assert _asked(keys.verify, signature, payload_digest) == (True, 0)
    # Same seed, another object: the full check, which then vouches ...
    assert _asked(twin.verify, signature, payload_digest) == (True, 1)
    assert _asked(twin.verify, signature, payload_digest) == (True, 0)
    # ... and the first registry is asked again, not trusted blindly.
    assert _asked(keys.verify, signature, payload_digest) == (True, 1)
    # A foreign PKI never accepts it, and its refusal changes nothing.
    assert _asked(stranger.verify, signature, payload_digest) == (False, 1)
    assert _asked(stranger.verify, signature, payload_digest) == (False, 1)
    assert _asked(keys.verify, signature, payload_digest) == (True, 0)
    # Recorded for this digest, not for any other (equal bytes are this
    # digest; a ``bytearray`` of them is not a digest at all).
    other = digest(("op", 2))
    assert _asked(keys.verify, signature, other) == (False, 1)
    assert _asked(keys.verify, signature, other) == (False, 1)
    assert _asked(keys.verify, signature, bytes(bytearray(payload_digest))) \
        == (True, 0)
    assert _asked(keys.verify, signature, bytearray(payload_digest)) \
        == (False, 0)


def _signature_cases(keys, payload_digest):
    """``name -> (signature, verdict, HMAC entries of the first check,
    and of the second)``, each made after the genuine signature was
    recorded."""
    genuine = keys.sign("n0", payload_digest)
    assert keys.verify(genuine, payload_digest)
    return {
        "forged_twin": (Signature("n0", b"\xff" * 32), False, 1, 1),
        "forged_helper": (keys.forged("n0"), False, 1, 1),
        "another_signer": (Signature("n1", genuine.tag), False, 1, 1),
        # Valid, so the first full check vouches for the new instance.
        "replace_drops_the_record":
            (dataclasses.replace(genuine), True, 1, 0),
        "replace_tag":
            (dataclasses.replace(genuine, tag=b"\x00" * 32), False, 1, 1),
        "copy_keeps_a_record_that_is_still_true":
            (copy.copy(genuine), True, 0, 0),
        # A deep copy carries a copy of the registry, which is not ``keys``.
        "deepcopy_misses": (copy.deepcopy(genuine), True, 1, 0),
        # Valid, but never recorded: not exactly a ``Signature``.
        "subclass": (SubSignature(**_parts(genuine)), True, 1, 1),
        "slots_lookalike": (SlottedSignature(**_parts(genuine)), True, 1, 1),
    }


@pytest.mark.parametrize(
    "name", sorted(_signature_cases(KeyRegistry(), b"\x01" * 32)))
def test_signatures_made_any_other_way_take_the_full_check(name):
    keys = KeyRegistry(seed=3)
    payload_digest = digest(("op", 1))
    signature, valid, first, again = _signature_cases(
        keys, payload_digest)[name]
    assert _asked(keys.verify, signature, payload_digest) == (valid, first)
    assert _asked(keys.verify, signature, payload_digest) == (valid, again)
    recorded = "_repro_memo" in getattr(signature, "__dict__", ())
    assert recorded == (valid and type(signature) is Signature)


def test_threshold_certificate_is_vouched_by_its_own_registry_only():
    keys, twin, stranger = (KeyRegistry(seed=1), KeyRegistry(seed=1),
                            KeyRegistry(seed=2))
    certificate = _combined(keys)
    ours, theirs, foreign = (ThresholdVerifier(keys), ThresholdVerifier(twin),
                             ThresholdVerifier(stranger))
    # Combined by ``keys``: vouched at once, whichever verifier holds it.
    assert _asked(ours.is_valid, certificate) == (True, 0)
    assert _asked(ThresholdVerifier(keys).is_valid, certificate) == (True, 0)
    # Same seed, another object: every member's HMAC, which then vouches.
    assert _asked(theirs.is_valid, certificate) == (True, len(GROUP))
    assert _asked(theirs.is_valid, certificate) == (True, 0)
    # ... and the first registry is asked again, not trusted blindly.
    assert _asked(ours.is_valid, certificate) == (True, len(GROUP))
    # A foreign PKI never accepts it, and its refusal changes nothing.
    assert _asked(foreign.is_valid, certificate) == (False, len(GROUP))
    assert _asked(foreign.is_valid, certificate) == (False, len(GROUP))
    assert _asked(ours.is_valid, certificate) == (True, 0)


def test_combining_signs_only_for_the_members_it_holds_no_share_of():
    keys = KeyRegistry(seed=2)
    payload_digest = b"\x55" * 32
    everyone = [keys.sign(member, payload_digest) for member in sorted(GROUP)]
    # Three first checks of a share, one absent member.
    certificate, entered = _asked(combine_threshold, keys, payload_digest,
                                  everyone[:3], GROUP, 3)
    assert entered == 3 + 1
    # The aggregate is what every member's own tag makes; the three
    # shares already carry their verdict.
    assert _asked(combine_threshold, keys, payload_digest, everyone,
                  GROUP, 3) == (certificate, 1)


def _threshold_cases(keys):
    """``name -> (certificate, verdict, HMAC entries of the first check,
    and of the second)``, each made after the genuine one was sealed."""
    genuine = _combined(keys)
    n = len(GROUP)
    return {
        "fabricated_tag":
            (dataclasses.replace(genuine, tag=b"\x00" * 32), False, n, n),
        "moved_to_another_digest":
            (dataclasses.replace(genuine, payload_digest=b"\x66" * 32),
             False, n, n),
        "relabelled_threshold":
            (dataclasses.replace(genuine, threshold=2), False, n, n),
        # Valid, so the first full check vouches for the new instance.
        "replace_drops_the_record": (dataclasses.replace(genuine), True, n, 0),
        "hand_made":
            (ThresholdCertificate(**_parts(genuine)), True, n, 0),
        "copy_keeps_a_record_that_is_still_true":
            (copy.copy(genuine), True, 0, 0),
        # A deep copy carries a copy of the registry, which is not ``keys``.
        "deepcopy_misses": (copy.deepcopy(genuine), True, n, 0),
        # Valid, but never recorded: not exactly a ``ThresholdCertificate``.
        "subclass": (SubCertificate(**_parts(genuine)), True, n, n),
        "slots_lookalike":
            (SlottedCertificate(**_parts(genuine)), True, n, n),
    }


@pytest.mark.parametrize("name", sorted(_threshold_cases(KeyRegistry())))
def test_certificates_made_any_other_way_take_the_full_check(name):
    keys = KeyRegistry(seed=3)
    verifier = ThresholdVerifier(keys)
    certificate, valid, first, again = _threshold_cases(keys)[name]
    assert _asked(verifier.is_valid, certificate) == (valid, first)
    assert _asked(verifier.is_valid, certificate) == (valid, again)
    recorded = "_repro_memo" in getattr(certificate, "__dict__", ())
    assert recorded == (valid and type(certificate) is ThresholdCertificate)


def test_a_record_made_before_the_first_encode_changes_no_byte():
    """The walk finds a record whose bytes are still ``None`` (the seal's
    "sealed before encoded" branch) and must yield what it would have."""
    keys = KeyRegistry(seed=4)
    payload_digest = digest(("op", 1))
    verified, untouched = (keys.sign("n0", payload_digest),
                           keys.sign("n0", payload_digest))
    assert keys.verify(verified, payload_digest)
    sealed = _combined(keys, payload_digest)
    plain = ThresholdCertificate(**_parts(sealed))
    for recorded, never in ((verified, untouched), (sealed, plain)):
        assert recorded.__dict__["_repro_memo"][0] is None
        assert "_repro_memo" not in never.__dict__
        assert canonical_bytes(recorded) == canonical_bytes(never)
        assert digest(recorded) == digest(never)
        assert digest((recorded,)) == digest((never,))
        assert recorded.signature_units() == never.signature_units() == 1
        assert nested_signature_units((recorded, recorded)) \
            == nested_signature_units((never, never)) == 2
    # ... and the record is still there, and still answers.
    assert _asked(keys.verify, verified, payload_digest) == (True, 0)
    assert _asked(ThresholdVerifier(keys).is_valid, sealed) == (True, 0)


#: ``invalid_messages`` per node (zeros left out), completed requests and
#: processed events of a 300 ms mixed run with z0n1 and z1n0 misbehaving;
#: generated at the commit before envelopes were sealed — and again, for
#: these runs read, at the commit before a read asked ``2f+1`` members
#: and a zone certified once per epoch (fewer ``ReadRequest`` /
#: ``ReadReply`` / ``WatermarkShare`` deliveries, hence fewer events and
#: another interleaving; 11507, 5842, 5842, 5994, 7226, 9286, 9659 events
#: before) — and again, for the four runs whose migrations complete, at
#: the commit before Algorithm 2 ran once per group. Their ballots hold
#: one request each, so every group is of one; but a ballot's groups now
#: act once its batch has executed, after the initiator zone's reply to
#: the client rather than before it: another send order, so other link
#: jitters, fewer commit re-queries and 11093, 6730, 8726, 8726 events
#: before. The same requests complete, and what is judged invalid is
#: still exactly the corrupt signer's traffic. All seven again at the
#: commit before votes went to the endorsement leader alone: an instance
#: sends 6 ``EndorseVote``s where it sent 12 or 15 (1 764 -> 828 in the
#: honest run), so fewer deliveries and events (11043, 4612, 4612, 5248,
#: 6695, 8647, 8647 before) and another interleaving — 90, 62, 68, 68
#: completions before; a destination backup now applies an append one
#: LAN hop after its leader. The corrupt backup's votes reach its leader
#: only, and the corrupt primary's peers see no vote of its own but
#: fewer rounds, so peers book fewer (72 and 30 per peer before);
#: nothing else is judged invalid. All seven again at the commit before a
#: read asked ``f+1`` members and completed on one proven reply from the
#: certified version: fewer ``ReadRequest`` / ``ReadReply`` deliveries,
#: and a client that migrated in after its new zone's certified version
#: reads through consensus until the zone certifies again — 83, 57, 57,
#: 51, 60, 71, 71 completions and 8503, 4074, 4074, 4409, 5231, 7047,
#: 7241 events before. The corrupt signers' traffic is still all that is
#: judged invalid (z0n1 booked one message of z1n0 before). Two moved at
#: the commit before a request timer judged only the view it was armed in
#: and a prepared proof carried its pre-prepare without the batch: z1,
#: whose primary z1n0 misbehaves, now changes view once, so its peers
#: book 14 of z1n0's messages (16 before) in 4243 events (4255), and the
#: equivocation run takes 5185 events (5266). All seven again at the
#: commit before a read asked one member, not ``f+1``: fewer
#: ``ReadRequest`` / ``ReadReply`` deliveries and another interleaving —
#: 81, 57, 57, 53, 62, 71, 71 completions and 8634, 4140, 4140, 4243,
#: 5185, 7229, 7230 events before. What is judged invalid is still the
#: corrupt signers' traffic alone, of which the peers now see more (64,
#: 36, 36 and 14 per peer before). All seven again at the commit before
#: a source zone shipped R(c) on accepting a ballot rather than on
#: executing its COMMIT: a migration completes about one WAN leg sooner,
#: so the window holds more of them — 82, 61, 61, 51, 62, 71, 71
#: completions and 8488, 4191, 4191, 4119, 5491, 7121, 7121 events
#: before. What is judged invalid is still the corrupt signers' traffic
#: alone; z0n1's peers see more of it (70, 43, 43 before).
_RUNS_AT_THE_PARENT = {
    "honest": ({}, 106, 9912),
    "crash": ({}, 60, 4879),
    "silent": ({}, 60, 4879),
    "corrupt-signature": ({"z0n0": 93, "z0n2": 60, "z0n3": 60,
                           "z1n1": 16, "z1n2": 16, "z1n3": 16}, 57, 4916),
    "equivocate": ({}, 66, 6308),
    "stale-read": ({}, 78, 7546),
    "fabricate-read": ({}, 78, 7546),
}


@pytest.mark.parametrize("name", BEHAVIOR_NAMES)
def test_every_behaviour_is_judged_as_before_the_seal(name):
    deployment = small_ziziphus(
        seed=7, read=ReadConfig(enabled=True),
        behaviors={"z0n1": make_behavior(name), "z1n0": make_behavior(name)})
    ClosedLoopDriver(deployment,
                     WorkloadMix(global_fraction=0.3, read_fraction=0.3),
                     clients_per_zone=4, seed=7).start()
    deployment.sim.run(until=300.0)
    invalid = {node_id: node.invalid_messages
               for node_id, node in deployment.nodes.items()
               if node.invalid_messages}
    completed = sum(len(c.completed) for c in deployment.clients.values())
    assert (invalid, completed, deployment.sim.events_processed) == \
        _RUNS_AT_THE_PARENT[name]


# ----------------------------------------------------------------------
# Type-confused signatures are invalid, not fatal
# ----------------------------------------------------------------------

_CONFUSED = {
    "str_tag": lambda good, d: (Signature("n0", "x" * 32), d),
    "none_tag": lambda good, d: (Signature("n0", None), d),
    "bytearray_tag": lambda good, d: (Signature("n0", bytearray(good.tag)), d),
    "bytearray_digest": lambda good, d: (good, bytearray(d)),
    "list_signer": lambda good, d: (Signature(["n0"], good.tag), d),
}


@pytest.mark.parametrize("name", sorted(_CONFUSED))
def test_type_confused_signature_is_invalid_not_an_error(name):
    keys = KeyRegistry(seed=6)
    payload_digest = digest(("op", 1))
    good = keys.sign("n0", payload_digest)
    signature, given = _CONFUSED[name](good, payload_digest)
    assert keys.verify(signature, given) is False
    assert keys.verify(signature, given) is False
    assert keys.verify(good, payload_digest) is True


@pytest.mark.parametrize("bad", [bytearray(32), "x" * 32, None, 7, [1]])
def test_signing_a_non_bytes_digest_is_a_crypto_error(bad):
    keys = KeyRegistry(seed=6)
    with pytest.raises(CryptoError):
        keys.sign("n0", bad)


class BadSignatureBehavior(Behavior):
    """Sends every message under ``make(signer)`` for a signature."""

    def __init__(self, make):
        self.make = make

    def outbound(self, keys, signer, dst, payload):
        return Signed(payload, self.make(signer))


def _one_liar_among_honest_hosts(make):
    """n0, lying as ``BadSignatureBehavior(make)``, and honest n1 each send
    host n2 a request; n0 also answers client c0. Asserts that n2 counted
    one invalid envelope and went on to serve n1; returns the client."""
    sim = Simulator()
    sim.obs = Instrumentation(recording=True)
    network = Network(sim, seed=6)
    keys = KeyRegistry(seed=6)
    liar = HostNode(sim, network, keys, "n0",
                    behavior=BadSignatureBehavior(make))
    honest = HostNode(sim, network, keys, "n1")
    target = HostNode(sim, network, keys, "n2")
    client = PBFTClient(sim, network, keys, "c0", ("n0", "n1", "n2", "n3"), 1)
    seen = []
    target.register_handler(ClientRequest,
                            lambda sender, payload, env: seen.append(sender))
    for process in (liar, honest, target, client):
        network.register(process, Region.OHIO)
    liar.send_signed("n2", _request("n0"))
    liar.send_signed("c0", ClientReply(view=0, timestamp=1, client_id="c0",
                                       result="ok", sender="n0"))
    honest.send_signed("n2", _request("n1"))
    sim.run()
    assert target.invalid_messages == 1
    assert [(event.node, event.fields["sender"]) for event in sim.obs.events
            if event.kind == "host.invalid"] == [("n2", "n0")]
    assert seen == ["n1"]
    return client


def test_type_confused_envelope_is_counted_and_the_run_continues():
    # A tag that is not ``bytes``.
    _one_liar_among_honest_hosts(lambda signer: Signature(signer, None))


NOT_SIGNATURES = [None, "x", 5, (1, 2)]


@pytest.mark.parametrize("bad", NOT_SIGNATURES, ids=repr)
def test_envelope_whose_signature_is_no_signature_is_invalid(bad):
    keys = KeyRegistry(seed=6)
    assert _verdict(keys, Signed(_request(), bad)) == (False, 0)
    # A payload that claims no sender leaves the verdict to the registry.
    assert _verdict(keys, Signed(("op", 1), bad)) == (False, 1)
    assert keys.verify(bad, digest(("op", 1))) is False


@pytest.mark.parametrize("bad", NOT_SIGNATURES, ids=repr)
def test_envelope_without_a_signature_is_counted_and_the_run_continues(bad):
    client = _one_liar_among_honest_hosts(lambda signer: bad)
    # The PBFT client dropped the reply it got the same way.
    assert client.messages_handled == 1 and client.completed == []


@pytest.mark.parametrize("bad", NOT_SIGNATURES, ids=repr)
def test_mobile_client_drops_a_reply_without_a_signature(bad):
    deployment = small_ziziphus(seed=6)
    client = deployment.add_client("c1", "z0")
    client.submit_local(("deposit", 5))
    reply = ClientReply(view=0, timestamp=1, client_id="c1", result="ok",
                        sender="z0n0")
    client.on_message("z0n0", Signed(reply, bad))
    assert client.completed == []
    deployment.sim.run(until=2_000.0)
    assert len(client.completed) == 1


# ----------------------------------------------------------------------
# Malformed certificates are invalid, not fatal
# ----------------------------------------------------------------------

def _malformed(keys, payload_digest):
    """``name -> certificate``: a genuine certificate of zone ``z0`` over
    ``payload_digest`` with one part swapped for the wrong type."""
    members = sorted(GROUP)
    threshold = _combined(keys, payload_digest)
    quorum = _cert(keys, members, 3, payload_digest)
    return {
        "threshold_bytearray_digest":
            dataclasses.replace(threshold,
                                payload_digest=bytearray(payload_digest)),
        "threshold_none_digest":
            dataclasses.replace(threshold, payload_digest=None),
        "threshold_list_group":
            dataclasses.replace(threshold, group=members),
        "threshold_mixed_group":
            dataclasses.replace(threshold, group=frozenset(members[:3] + [3])),
        "threshold_str_tag":
            dataclasses.replace(threshold, tag=threshold.tag.hex()),
        # Compared with the zone's quorum before the verifier looked at
        # its type: a TypeError, not a refusal, until the shape check
        # came first.
        "threshold_str_threshold":
            dataclasses.replace(threshold, threshold=str(threshold.threshold)),
        "quorum_list_signatures":
            dataclasses.replace(quorum, signatures=list(quorum.signatures)),
        "quorum_none_signatures":
            dataclasses.replace(quorum, signatures=None),
        "quorum_item_is_no_signature":
            dataclasses.replace(
                quorum, signatures=quorum.signatures[:2] + ("n2",)),
        "quorum_bytearray_digest":
            dataclasses.replace(quorum,
                                payload_digest=bytearray(payload_digest)),
        "quorum_none_digest":
            dataclasses.replace(quorum, payload_digest=None),
    }


@pytest.mark.parametrize("name", sorted(_malformed(KeyRegistry(), b"\x01" * 32)))
def test_malformed_certificate_is_invalid_not_an_error(name):
    keys = KeyRegistry(seed=7)
    payload_digest = digest(("body", 1))
    certificate = _malformed(keys, payload_digest)[name]
    directory = ZoneDirectory(keys)
    directory.add_zone(ZoneInfo("z0", tuple(sorted(GROUP)), Region.OHIO,
                                pbft_profile(1)))
    if name.startswith("threshold"):
        verifier, args = ThresholdVerifier(keys), ()
    else:
        verifier, args = CertificateVerifier(keys), (3, GROUP)
    for _ in range(2):
        assert verifier.is_valid(certificate, *args) is False
        with pytest.raises(InvalidCertificateError):
            verifier.validate(certificate, *args)
        assert directory.cert_valid(certificate, payload_digest, "z0") is False
    assert "_repro_memo" not in certificate.__dict__
    # The genuine ones still pass, under the same registry.
    assert directory.cert_valid(_combined(keys, payload_digest),
                                payload_digest, "z0")
    assert directory.cert_valid(_cert(keys, sorted(GROUP), 3, payload_digest),
                                payload_digest, "z0")


class MalformedCertBehavior(Behavior):
    """Relays every certificate under a digest that is a ``bytearray``:
    equal to the expected body, so the directory's comparison lets it
    through to the verifier."""

    def outbound(self, keys, signer, dst, payload):
        cert = getattr(payload, "cert", None)
        if cert is not None:
            payload = dataclasses.replace(payload, cert=dataclasses.replace(
                cert, payload_digest=bytearray(cert.payload_digest)))
        return sign_message(keys, signer, payload)


@pytest.mark.parametrize("threshold", [False, True])
def test_malformed_certificate_reaches_a_live_node_and_the_run_continues(
        threshold):
    deployment = small_ziziphus(seed=7, use_threshold_signatures=threshold,
                                behaviors={"z0n0": MalformedCertBehavior()})
    obs = Instrumentation(enabled=True, recording=True, metrics=False)
    obs.attach(deployment)
    monitor = ProtocolMonitor.attach(obs, deployment)
    mover = deployment.add_client("c1", "z0")
    local = deployment.add_client("c2", "z1")
    mover.submit_migration("z1")
    records = drive_to_completion(deployment, local,
                                  [("local", ("deposit", 5))], max_steps=1)
    assert len(records) == 1
    relayed = [event for event in obs.events if event.kind == "cert.check"
               and event.fields["src"] == "z0n0"]
    assert relayed and not any(event.fields["valid"] for event in relayed)
    assert {event.node for event in relayed} \
        >= set(deployment.directory.zone("z1").members)
    # Booked like a forged certificate (test_forged_cert_is_flagged_online).
    assert {(v.kind, v.culprit, v.detail["reason"])
            for v in monitor.violations if v.kind == "cert-invalid"} \
        == {("cert-invalid", "z0n0", "signature-invalid")}


def test_a_threshold_that_is_no_int_is_refused_where_it_lands():
    """An ACCEPT whose threshold certificate names its threshold as a
    ``str``, delivered to a follower node: the receipt check refuses it,
    the monitor books it (without comparing the ``str`` to the quorum),
    and the run goes on. The same certificate, sent to a zone member as
    its leader's endorsement certificate, is refused there and booked."""
    deployment = small_ziziphus(seed=7, use_threshold_signatures=True)
    obs = Instrumentation(enabled=True, recording=True, metrics=False)
    obs.attach(deployment)
    monitor = ProtocolMonitor.attach(obs, deployment)
    keys, members = deployment.keys, deployment.directory.zone("z0").members
    ballot = Ballot(seq=1, zone_id="z0")
    body = accept_body(ballot, GENESIS_BALLOT, digest(()))
    malformed = dataclasses.replace(
        combine_threshold(keys, body, [keys.sign(m, body) for m in members],
                          frozenset(members), 3),
        threshold="3")
    accept = Accept(view=0, ballot=ballot, prev_ballot=GENESIS_BALLOT,
                    request_digest=digest(()), cert=malformed, sender="z0n0")
    vote = EndorseVote(instance=f"gsync-accept/{ballot.key}", view=0,
                       endorse_digest=body, share=None, sender="z0n0",
                       cert=malformed)
    for target, payload in (("z1n1", accept), ("z0n2", vote)):
        deployment.network.send("z0n0", target,
                                sign_message(keys, "z0n0", payload))
    mover = deployment.add_client("c1", "z0")
    records = drive_to_completion(deployment, mover, [("migrate", "z1")])
    assert records[0].result == ("migrated", "ok", "z1")
    checked = [event.fields["valid"] for event in obs.events
               if event.kind == "cert.check" and event.node == "z1n1"
               and event.fields.get("threshold") == "3"]
    assert checked == [False]
    assert {(v.kind, v.culprit, v.detail["reason"])
            for v in monitor.violations} \
        == {("cert-invalid", "z0n0", "signature-invalid")}
    assert [(event.node, event.fields["msg"]) for event in obs.events
            if event.kind == "host.invalid"] == [("z0n2", "EndorseVote")]


# ----------------------------------------------------------------------
# Nothing in crypto/ grows with traffic
# ----------------------------------------------------------------------

def _reachable(root):
    """How many objects ``root`` keeps alive (its class, and anything a
    class, module or function drags in, left out)."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType,
                      types.BuiltinFunctionType)):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


def test_nothing_is_kept_per_signature_or_certificate():
    keys = KeyRegistry(seed=8)
    certificates, thresholds = CertificateVerifier(keys), ThresholdVerifier(keys)
    members = sorted(GROUP)

    def traffic(start, stop):
        for i in range(start, stop):
            payload_digest = digest(("op", i))
            signer = members[i % 4]
            assert keys.verify(keys.sign(signer, payload_digest),
                               payload_digest)
            assert not keys.verify(Signature(signer, payload_digest),
                                   payload_digest)
            if i % 10 == 0:
                certificates.validate(
                    _cert(keys, members, 3, payload_digest), 3, GROUP)
                thresholds.validate(ThresholdCertificate(
                    **_parts(_combined(keys, payload_digest))))
                assert not thresholds.is_valid(dataclasses.replace(
                    _combined(keys, payload_digest), tag=payload_digest))

    def fabricated(start, stop):
        # Signer names nobody holds a key for, as a faulty node invents
        # them: each is judged (and refused), none is remembered.
        for i in range(start, stop):
            payload_digest = digest(("op", i))
            assert not keys.verify(Signature(f"ghost-{i}", payload_digest),
                                   payload_digest)

    traffic(0, 10)
    fabricated(0, 10)
    before = [_reachable(root) for root in (keys, certificates, thresholds)]
    traffic(10, 10_000)
    fabricated(10, 10_000)
    assert [_reachable(root)
            for root in (keys, certificates, thresholds)] == before
    # The registry, its seed, its table, and one id + secret per signer.
    assert before[0] <= 4 + 2 * len(GROUP)
    assert set(vars(keys)) == {"_seed", "_secrets"}
    assert sorted(keys._secrets) == members


def test_a_run_leaves_no_table_in_the_crypto_objects():
    deployment = small_ziziphus(seed=7, read=ReadConfig(enabled=True),
                                use_threshold_signatures=True)
    ClosedLoopDriver(deployment,
                     WorkloadMix(global_fraction=0.3, read_fraction=0.3),
                     clients_per_zone=4, seed=7).start()
    deployment.sim.run(until=300.0)
    assert sum(len(c.completed) for c in deployment.clients.values()) > 50
    signers = len(deployment.nodes) + len(deployment.clients)
    directory = deployment.directory
    holders = [deployment.keys, directory._cert_verifier,
               directory._threshold_verifier]
    holders += [client._verifier for client in deployment.clients.values()]
    assert len(holders) == 3 + len(deployment.clients)
    for holder in holders:
        for name, value in vars(holder).items():
            assert not hasattr(value, "__len__") or len(value) <= signers, \
                (type(holder).__name__, name, len(value))
    assert _reachable(deployment.keys) <= 4 + 2 * signers


# ----------------------------------------------------------------------
# Censuses
# ----------------------------------------------------------------------

def _sources():
    root = Path(__file__).resolve().parents[1]
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        yield root, path, path.read_text()


def test_memo_site_census_matches_design_doc():
    """ROADMAP tracks the number of memo sites; it may not grow silently.

    The one ``_repro_*`` instance-memo name and every module-level
    per-class table in ``src/repro`` must be the ones DESIGN.md §10
    documents, and only the schema may enumerate a dataclass's fields.
    """
    memo_names, class_tables, field_walkers = set(), set(), set()
    memo_tables = set()
    for root, path, source in _sources():
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        memo_names |= set(re.findall(r"_repro_[a-z_]+", source))
        memo_tables |= {f"{module}.{name}" for name in
                        re.findall(r"self\.(_\w*memo)\b", source)}
        class_tables |= {
            f"{module}.{name}" for name in
            re.findall(r"^(\w+): dict\[type\b", source, flags=re.MULTILINE)}
        if re.search(r"dataclasses\.fields\(|__dataclass_fields__", source):
            field_walkers.add(module)
    design = (root / "DESIGN.md").read_text()
    section = design[design.index("## 10."):design.index("## 11.")]
    assert memo_names == set(re.findall(r"`(_repro_[a-z_]+)`", section))
    assert len(memo_names) == 1
    assert class_tables == set(re.findall(r"`(repro\.[a-z_.]+\.[A-Z_]+)`",
                                          section))
    assert field_walkers == {"repro.crypto.schema"}
    # Content-keyed memo tables on an instance (four, all in ``crypto/``,
    # before a verdict lived on what it judges): none.
    assert memo_tables == set()


def test_honest_envelopes_are_made_in_one_place():
    """``sign_message`` is the seal; the only other ``Signed(`` call in
    ``src/repro`` is the forgery of ``CorruptSignatureBehavior``."""
    sites = [f"{path.relative_to(root / 'src' / 'repro')}:{line.strip()}"
             for root, path, source in _sources()
             if path.name != "base.py" or path.parent.name != "messages"
             for line in source.splitlines()
             if re.search(r"(?<![\w.(])Signed\(", line)]
    assert sites == ["pbft/faults.py:return Signed(payload=payload, "
                     "signature=keys.forged(signer))"]
