"""Soundness tests for the crypto hot-path memoisation.

The verify/validate caches must be pure accelerators: every adversarial
input that failed before caching must still fail after a *valid* sibling
has been cached, and no cache entry may leak across registry or
verifier instances.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.crypto.certificates import CertificateVerifier, QuorumCertificate
from repro.crypto.digest import digest
from repro.crypto.keys import KeyRegistry, Signature
from repro.crypto.threshold import ThresholdVerifier, combine_threshold
from repro.errors import InvalidCertificateError
from repro.messages.client import ClientRequest


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


def test_memo_site_census_matches_design_doc():
    """ROADMAP tracks the number of memo sites; it may not grow silently.

    Every ``_repro_*`` instance-memo name and every module-level
    per-class table in ``src/repro`` must be the ones DESIGN.md §10
    documents, and only the schema may enumerate a dataclass's fields.
    """
    root = Path(__file__).resolve().parents[1]
    design = (root / "DESIGN.md").read_text()
    section = design[design.index("## 10."):design.index("## 11.")]
    memo_names, class_tables, field_walkers = set(), set(), set()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        source = path.read_text()
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        memo_names |= set(re.findall(r"_repro_[a-z_]+", source))
        class_tables |= {
            f"{module}.{name}" for name in
            re.findall(r"^(\w+): dict\[type\b", source, flags=re.MULTILINE)}
        if re.search(r"dataclasses\.fields\(|__dataclass_fields__", source):
            field_walkers.add(module)
    assert memo_names == set(re.findall(r"`(_repro_[a-z_]+)`", section))
    assert len(memo_names) <= 3
    assert class_tables == set(re.findall(r"`(repro\.[a-z_.]+\.[A-Z_]+)`",
                                          section))
    assert field_walkers == {"repro.crypto.schema"}
