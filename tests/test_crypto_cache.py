"""Soundness tests for the crypto hot-path memoisation.

The verify/validate caches must be pure accelerators: every adversarial
input that failed before caching must still fail after a *valid* sibling
has been cached, and no cache entry may leak across registry or
verifier instances.
"""

import copy
import dataclasses
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import pytest

from repro.crypto.certificates import CertificateVerifier, QuorumCertificate
from repro.crypto.digest import digest
from repro.crypto.keys import KeyRegistry, Signature
from repro.crypto.threshold import ThresholdVerifier, combine_threshold
from repro.errors import CryptoError, InvalidCertificateError
from repro.messages.base import Signed, sign_message, verify_signed
from repro.messages.client import ClientRequest
from repro.obs.bus import Instrumentation
from repro.pbft.faults import BEHAVIOR_NAMES, Behavior, make_behavior
from repro.pbft.host import HostNode
from repro.reads import ReadConfig
from repro.sim.events import Simulator
from repro.sim.latency import Region
from repro.sim.network import Network
from repro.workload.driver import ClosedLoopDriver
from repro.workload.generator import WorkloadMix

from tests.conftest import small_ziziphus


def _cert(keys, members, quorum, payload_digest):
    return QuorumCertificate.aggregate(
        payload_digest, [keys.sign(m, payload_digest)
                         for m in members[:quorum]])


def test_forged_tag_rejected_after_valid_signature_cached():
    keys = KeyRegistry(seed=1)
    payload_digest = b"\x01" * 32
    good = keys.sign("n0", payload_digest)
    # Prime the cache with the honest verification.
    assert keys.verify(good, payload_digest)
    # Same signer, same digest, forged tag: must miss the memo and fail.
    forged = Signature(signer="n0", tag=b"\xff" * 32)
    assert not keys.verify(forged, payload_digest)
    # And the failure itself is cached without poisoning the good entry.
    assert keys.verify(good, payload_digest)
    assert not keys.verify(forged, payload_digest)


def test_forged_helper_still_rejected_repeatedly():
    keys = KeyRegistry(seed=2)
    payload_digest = digest(("op", 1))
    assert keys.verify(keys.sign("n3", payload_digest), payload_digest)
    for _ in range(3):
        assert not keys.verify(keys.forged("n3"), payload_digest)


def test_verify_memo_does_not_leak_across_registries():
    a = KeyRegistry(seed=1)
    b = KeyRegistry(seed=2)
    payload_digest = b"\x07" * 32
    sig = a.sign("n0", payload_digest)
    assert a.verify(sig, payload_digest)
    # Registry ``b`` derives a different secret for n0, so ``a``'s
    # signature must not validate there — cached or not.
    assert not b.verify(sig, payload_digest)
    assert a.verify(sig, payload_digest)


def test_signing_same_digest_twice_returns_equal_signature():
    keys = KeyRegistry(seed=3)
    payload_digest = b"\x0a" * 32
    first = keys.sign("n1", payload_digest)
    second = keys.sign("n1", payload_digest)
    assert first == second
    assert keys.verify(second, payload_digest)


def test_certificate_cache_keyed_on_content_not_identity():
    members = ("n0", "n1", "n2", "n3")
    quorum = 3
    keys = KeyRegistry(seed=4)
    verifier = CertificateVerifier(keys)
    payload_digest = b"\x11" * 32
    good = _cert(keys, members, quorum, payload_digest)
    verifier.validate(good, quorum, frozenset(members))
    # An equivocating twin: same digest, one signature swapped for a
    # forgery. Equal-looking but different content — must not hit the
    # good certificate's cache entry.
    bad = QuorumCertificate(
        payload_digest=payload_digest,
        signatures=good.signatures[:-1] + (keys.forged(members[quorum - 1]),))
    with pytest.raises(InvalidCertificateError):
        verifier.validate(bad, quorum, frozenset(members))
    # Re-validating both keeps giving the same answers (memoised paths).
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


def test_certificate_cache_does_not_leak_across_verifiers():
    members = ("n0", "n1", "n2", "n3")
    quorum = 3
    trusted = KeyRegistry(seed=6)
    other = KeyRegistry(seed=7)
    cert = _cert(trusted, members, quorum, b"\x44" * 32)
    CertificateVerifier(trusted).validate(cert, quorum, frozenset(members))
    with pytest.raises(InvalidCertificateError):
        CertificateVerifier(other).validate(cert, quorum,
                                            frozenset(members))


def test_threshold_fabricated_tag_fails_after_valid_cached():
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


#: ``invalid_messages`` per node (zeros left out), completed requests and
#: processed events of a 300 ms mixed run with z0n1 and z1n0 misbehaving;
#: generated at the commit before envelopes were sealed.
_RUNS_AT_THE_PARENT = {
    "honest": ({}, 86, 11507),
    "crash": ({}, 61, 5842),
    "silent": ({}, 61, 5842),
    "corrupt-signature": ({"z0n0": 84, "z0n2": 84, "z0n3": 84,
                           "z1n1": 28, "z1n2": 28, "z1n3": 28}, 57, 5994),
    "equivocate": ({}, 62, 7226),
    "stale-read": ({}, 69, 9286),
    "fabricate-read": ({}, 71, 9659),
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


class TypeConfusedBehavior(Behavior):
    """Sends every message under a tag that is not ``bytes``."""

    def outbound(self, keys, signer, dst, payload):
        return Signed(payload, Signature(signer, None))


def test_type_confused_envelope_is_counted_and_the_run_continues():
    sim = Simulator()
    sim.obs = Instrumentation(recording=True)
    network = Network(sim, seed=6)
    keys = KeyRegistry(seed=6)
    liar = HostNode(sim, network, keys, "n0", behavior=TypeConfusedBehavior())
    honest = HostNode(sim, network, keys, "n1")
    target = HostNode(sim, network, keys, "n2")
    seen = []
    target.register_handler(ClientRequest,
                            lambda sender, payload, env: seen.append(sender))
    for node in (liar, honest, target):
        network.register(node, Region.OHIO)
    liar.send_signed("n2", _request("n0"))
    honest.send_signed("n2", _request("n1"))
    sim.run()
    assert target.invalid_messages == 1
    assert [(event.node, event.fields["sender"]) for event in sim.obs.events
            if event.kind == "host.invalid"] == [("n2", "n0")]
    assert seen == ["n1"]


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
    for root, path, source in _sources():
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        memo_names |= set(re.findall(r"_repro_[a-z_]+", source))
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
