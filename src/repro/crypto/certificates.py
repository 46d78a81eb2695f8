"""Quorum certificates.

A certificate proves that a quorum of ``2f+1`` distinct nodes of one zone
signed the same payload digest. Primaries attach certificates to every
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
from repro.quorums import intra_zone_quorum

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
        """Verification cost: one unit per contained signature."""
        return len(self.signatures)

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

    Validation outcomes are memoised per verifier, keyed on the
    certificate's *content* — ``(payload_digest, signatures, quorum,
    allowed_signers)`` — never on object identity: an equivocating
    primary's conflicting certificate carries a different digest (and
    different tags), so it can never hit another certificate's cache
    entry. Within one validation the signature scan stops as soon as the
    quorum is reached; the per-signature HMAC work itself is memoised in
    the shared :class:`~repro.crypto.keys.KeyRegistry`.
    """

    def __init__(self, keys: KeyRegistry) -> None:
        self._keys = keys
        self._memo: dict[tuple, int] = {}

    def validate(self, certificate: QuorumCertificate, quorum: int,
                 allowed_signers: frozenset[str] | None = None) -> None:
        """Raise :class:`InvalidCertificateError` unless the certificate
        carries ``quorum`` valid signatures from distinct allowed signers
        over its payload digest.
        """
        key = (certificate.payload_digest, certificate.signatures, quorum,
               allowed_signers)
        valid = self._memo.get(key)
        if valid is None:
            seen: set[str] = set()
            for sig in certificate.signatures:
                if allowed_signers is not None \
                        and sig.signer not in allowed_signers:
                    continue
                if sig.signer in seen:
                    continue
                if self._keys.verify(sig, certificate.payload_digest):
                    seen.add(sig.signer)
                    if len(seen) >= quorum:
                        break
            valid = len(seen)
            self._memo[key] = valid
        if valid < quorum:
            raise InvalidCertificateError(
                f"certificate has {valid} valid signatures, "
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

    def validate_zone(self, certificate: QuorumCertificate, f: int,
                      members: tuple[str, ...] | frozenset[str],
                      quorum: int | None = None) -> None:
        """Validate against a zone's membership and its canonical quorum.

        By default the quorum is derived from ``f`` through
        :func:`repro.quorums.intra_zone_quorum` so call sites cannot
        pass an ad-hoc threshold; a zone running a non-default consensus
        backend passes the ``certificate_quorum`` of its
        :class:`~repro.consensus.profile.QuorumProfile` instead.
        """
        if quorum is None:
            quorum = intra_zone_quorum(f)
        self.validate(certificate, quorum, frozenset(members))

    def is_valid_zone(self, certificate: QuorumCertificate, f: int,
                      members: tuple[str, ...] | frozenset[str],
                      quorum: int | None = None) -> bool:
        """Boolean form of :meth:`validate_zone`."""
        try:
            self.validate_zone(certificate, f, members, quorum=quorum)
        except InvalidCertificateError:
            return False
        return True
