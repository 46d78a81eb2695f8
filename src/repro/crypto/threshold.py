"""Simulated threshold signatures.

The paper notes that the ``2f+1`` signature vector in a certificate can be
replaced by a single constant-size threshold signature (Shoup-style
``(2f+1)``-of-``(3f+1)``). We simulate the scheme's *interface and cost
profile*: combining requires at least the threshold of valid shares, the
combined object verifies in one unit, and it cannot be fabricated without
the shares (enforced by deriving the aggregate tag from the share tags).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.keys import KeyRegistry, Signature
from repro.crypto.schema import vouch, vouched
from repro.errors import InvalidCertificateError

__all__ = ["ThresholdCertificate", "combine_threshold", "well_formed"]


@dataclass(frozen=True)
class ThresholdCertificate:
    """A constant-size aggregate standing in for ``2f+1`` signatures."""

    payload_digest: bytes
    group: frozenset[str]
    threshold: int
    tag: bytes

    @property
    def signers(self) -> frozenset[str]:
        """Threshold signatures hide individual signers; return the group."""
        return self.group

    def signature_units(self) -> int:
        """Verification cost: a single unit, regardless of quorum size."""
        return 1


def _group_tag(keys: KeyRegistry, payload_digest: bytes,
               group: frozenset[str], threshold: int,
               held: dict[str, bytes]) -> bytes:
    """The aggregate over every member's tag: ``held`` for the members
    whose verified share is at hand (a valid tag *is* the member's HMAC),
    signed afresh for the rest."""
    hasher = hashlib.sha256()
    hasher.update(payload_digest)
    hasher.update(str(threshold).encode())
    for member in sorted(group):
        tag = held.get(member)
        if tag is None:
            tag = keys.sign(member, payload_digest).tag
        hasher.update(tag)
    return hasher.digest()


def combine_threshold(keys: KeyRegistry, payload_digest: bytes,
                      shares: list[Signature], group: frozenset[str],
                      threshold: int) -> ThresholdCertificate:
    """Combine signature shares into a threshold certificate, sealed:
    ``keys`` vouches for what it has just made.

    Raises :class:`InvalidCertificateError` if fewer than ``threshold``
    distinct valid shares from ``group`` members are supplied.
    """
    valid: dict[str, bytes] = {}
    for share in shares:
        if share.signer in group and keys.verify(share, payload_digest):
            valid[share.signer] = share.tag
    if len(valid) < threshold:
        raise InvalidCertificateError(
            f"{len(valid)} valid shares, threshold {threshold} required"
        )
    tag = _group_tag(keys, payload_digest, group, threshold, valid)
    certificate = ThresholdCertificate(payload_digest=payload_digest,
                                       group=group, threshold=threshold,
                                       tag=tag)
    vouch(certificate, keys)
    return certificate


def well_formed(certificate: ThresholdCertificate) -> bool:
    """Whether every part of ``certificate`` has its type, so that it can
    be compared and hashed: it arrives from the network, and its parts
    are whatever the sender put there."""
    return (type(certificate.payload_digest) is bytes
            and type(certificate.tag) is bytes
            and type(certificate.threshold) is int
            and type(certificate.group) is frozenset
            and all(type(member) is str for member in certificate.group))


class ThresholdVerifier:
    """Validates threshold certificates (constant-cost verification).

    A certificate is vouched for (:func:`~repro.crypto.schema.vouch`) by
    the :class:`KeyRegistry` that combined it or found it valid, and only
    that very registry is answered from it. Any other certificate has
    its expected tag recomputed from the registry's secrets and compared,
    never trusted from the incoming object; a failure is not remembered.
    """

    def __init__(self, keys: KeyRegistry) -> None:
        self._keys = keys

    def validate(self, certificate: ThresholdCertificate) -> None:
        """Raise :class:`InvalidCertificateError` on a bad aggregate tag,
        or on a part of the wrong type: it arrives from the network."""
        exact = type(certificate) is ThresholdCertificate
        if exact and vouched(certificate, self._keys):
            return
        if not well_formed(certificate):
            raise InvalidCertificateError("malformed threshold certificate")
        if _group_tag(self._keys, certificate.payload_digest,
                      certificate.group, certificate.threshold,
                      {}) != certificate.tag:
            raise InvalidCertificateError("threshold certificate tag mismatch")
        if exact:
            vouch(certificate, self._keys)

    def is_valid(self, certificate: ThresholdCertificate) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(certificate)
        except InvalidCertificateError:
            return False
        return True
