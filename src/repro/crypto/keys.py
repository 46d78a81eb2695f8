"""Key registry and HMAC-based simulated signatures.

The paper assumes standard digital signatures (or MACs) that a
computationally-bounded adversary cannot forge. We simulate that property
with HMAC-SHA256 under per-node secrets held in a :class:`KeyRegistry`
derived from a master seed: only the registry can produce a node's tag, so
a Byzantine node that fabricates a signature object for another node will
fail verification — exactly the guarantee the protocols rely on.

Signing and verification *costs* are charged in simulated time by the
:class:`~repro.sim.process.CostModel`, not here.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro.crypto.schema import vouch, vouched
from repro.errors import CryptoError
from repro.sim.rng import derive_seed

__all__ = ["Signature", "KeyRegistry"]


@dataclass(frozen=True)
class Signature:
    """A signature by ``signer`` over a payload digest."""

    signer: str
    tag: bytes

    def signature_units(self) -> int:
        """Number of elementary verifications this object represents."""
        return 1


class KeyRegistry:
    """Holds every participant's signing secret.

    In a real deployment each node holds only its own private key; here the
    registry plays the role of the PKI and the per-node keys at once. The
    honest-node code paths only ever call :meth:`sign` with their own id;
    Byzantine behaviours in :mod:`repro.pbft.faults` forge *invalid* tags,
    never another node's valid tag, preserving unforgeability.

    No table here grows with traffic: ``_secrets`` has one entry per
    participant that ever *signed*, never one per name a message claims.
    :meth:`sign` is one HMAC and a fresh :class:`Signature` (an
    envelope's seal calls it when its signature is first read,
    :class:`~repro.messages.base.Signed`); :meth:`verify` vouches for a
    success on the signature it judged with ``(registry, digest)``
    (:func:`~repro.crypto.schema.vouch`) and answers from it only for
    this very registry and digest, on a frozen instance of exactly
    :class:`Signature`. A forged tag has no record and reaches the HMAC
    every time; a failure is never remembered (DESIGN.md §10).
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._secrets: dict[str, bytes] = {}

    def _derive(self, node_id: str) -> bytes:
        material = derive_seed(self._seed, "key", node_id)
        return hashlib.sha256(str(material).encode()).digest()

    def _secret(self, signer: str) -> bytes:
        """``signer``'s secret, kept from its first signature on."""
        secret = self._secrets.get(signer)
        if secret is None:
            secret = self._secrets[signer] = self._derive(signer)
        return secret

    def sign(self, signer: str, payload_digest: bytes) -> Signature:
        """Produce ``signer``'s signature over ``payload_digest``
        (``bytes``, as :func:`~repro.crypto.digest.digest` returns)."""
        if type(payload_digest) is not bytes:
            raise CryptoError("payload digest must be bytes")
        return Signature(signer, hmac.digest(self._secret(signer),
                                             payload_digest, "sha256"))

    def verify(self, signature: Signature, payload_digest: bytes) -> bool:
        """Check that ``signature`` is valid for ``payload_digest``.

        Both arrive from the network: anything but a ``str`` signer and
        ``bytes`` tag and digest (exactly: all three immutable) is an
        invalid signature, not an error.
        """
        if type(payload_digest) is not bytes:
            return False
        exact = type(signature) is Signature
        if exact and vouched(signature, (self, payload_digest)):
            return True
        try:
            signer, tag = signature.signer, signature.tag
        except AttributeError:  # not a signature at all
            return False
        if type(signer) is not str or type(tag) is not bytes:
            return False
        # The name comes from the network: one that never signed here is
        # answered (it may be another registry's signer) and not kept.
        secret = self._secrets.get(signer) or self._derive(signer)
        expected = hmac.digest(secret, payload_digest, "sha256")
        if not hmac.compare_digest(expected, tag):
            return False
        if exact:
            vouch(signature, (self, payload_digest))
        return True

    def forged(self, signer: str) -> Signature:
        """Return an *invalid* signature claiming to be from ``signer``.

        Used by Byzantine fault injection to model forgery attempts, which
        must (and do) fail verification.
        """
        return Signature(signer=signer, tag=b"\x00" * 32)
