"""Quorum certificates.

A certificate proves that a quorum of distinct nodes of one zone (its
profile's certificate quorum, ``2f+1`` under PBFT sizing) signed the same
payload digest. Primaries attach certificates to every
top-level (inter-zone) message so that Byzantine behaviour is confined
within zones: a receiver validates the certificate locally, with no extra
communication (paper §IV.B.1).

Two representations are supported, mirroring the paper:

- :class:`QuorumCertificate` — a vector of individual signatures
  (verification cost scales with quorum size);
- :class:`ThresholdCertificate` (see :mod:`repro.crypto.threshold`) — a
  single constant-size aggregate (verification cost is one unit).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.keys import KeyRegistry, Signature
from repro.errors import InvalidCertificateError

__all__ = ["QuorumCertificate", "CertificateVerifier"]


@dataclass(frozen=True)
class QuorumCertificate:
    """A collection of signatures from distinct signers over one digest."""

    payload_digest: bytes
    signatures: tuple[Signature, ...]

    @property
    def signers(self) -> frozenset[str]:
        """The set of distinct signer ids contained in the certificate."""
        return frozenset(sig.signer for sig in self.signatures)

    def signature_units(self) -> int:
        """Verification cost: one unit per contained signature. It
        arrives from the network: a vector that is not a tuple holds
        none, as :meth:`CertificateVerifier.validate` reads it."""
        signatures = self.signatures
        return len(signatures) if type(signatures) is tuple else 0

    @staticmethod
    def aggregate(payload_digest: bytes,
                  signatures: list[Signature]) -> "QuorumCertificate":
        """Build a certificate from collected matching signatures.

        Duplicate signers are collapsed; signature order is normalised so
        that certificates over the same votes compare equal.
        """
        unique: dict[str, Signature] = {}
        for sig in signatures:
            unique.setdefault(sig.signer, sig)
        ordered = tuple(sorted(unique.values(), key=lambda s: s.signer))
        return QuorumCertificate(payload_digest=payload_digest,
                                 signatures=ordered)


class CertificateVerifier:
    """Validates certificates against a key registry and zone membership.

    Nothing is remembered here: a validation is one scan that stops as
    soon as the quorum is reached, and each signature carries its own
    verdict (:meth:`~repro.crypto.keys.KeyRegistry.verify` records a
    success on what it judged), so the HMAC is paid once per signature.
    An equivocating primary's conflicting certificate carries other tags
    or another digest, which no record answers for.
    """

    def __init__(self, keys: KeyRegistry) -> None:
        self._keys = keys

    def validate(self, certificate: QuorumCertificate, quorum: int,
                 allowed_signers: frozenset[str] | None = None) -> None:
        """Raise :class:`InvalidCertificateError` unless the certificate
        carries ``quorum`` valid signatures from distinct allowed signers
        over its payload digest. It arrives from the network: a vector
        that is not a tuple holds none, and an item or digest of the
        wrong type is an invalid signature.
        """
        seen: set[str] = set()
        signatures = certificate.signatures
        if type(signatures) is not tuple:
            signatures = ()
        for sig in signatures:
            # A signature found valid has a ``str`` signer.
            if self._keys.verify(sig, certificate.payload_digest) and (
                    allowed_signers is None or sig.signer in allowed_signers):
                seen.add(sig.signer)
                if len(seen) >= quorum:
                    break
        if len(seen) < quorum:
            raise InvalidCertificateError(
                f"certificate has {len(seen)} valid signatures, "
                f"quorum of {quorum} required"
            )

    def is_valid(self, certificate: QuorumCertificate, quorum: int,
                 allowed_signers: frozenset[str] | None = None) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(certificate, quorum, allowed_signers)
        except InvalidCertificateError:
            return False
        return True
