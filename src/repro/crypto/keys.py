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

    Signing and verification are memoised per registry (mirroring the
    digest memo in :mod:`repro.crypto.digest`): HMAC-SHA256 is a pure
    function of ``(secret, payload_digest)``, so a certificate verified
    once never pays the HMAC again at the next receiver. Soundness: the
    verify memo keys on the full ``(signer, payload_digest, tag)``
    triple — a forged tag over an already-verified digest misses the
    cache and is recomputed (and rejected) — and both memos live on the
    registry instance, so registries with different seeds never share
    entries.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._secrets: dict[str, bytes] = {}
        self._sign_memo: dict[tuple[str, bytes], Signature] = {}
        self._verify_memo: dict[tuple[str, bytes, bytes], bool] = {}

    def _secret(self, node_id: str) -> bytes:
        secret = self._secrets.get(node_id)
        if secret is None:
            material = derive_seed(self._seed, "key", node_id)
            secret = hashlib.sha256(str(material).encode()).digest()
            self._secrets[node_id] = secret
        return secret

    def sign(self, signer: str, payload_digest: bytes) -> Signature:
        """Produce ``signer``'s signature over ``payload_digest``
        (``bytes``, as :func:`~repro.crypto.digest.digest` returns)."""
        key = (signer, payload_digest)
        try:
            signature = self._sign_memo.get(key)
        except TypeError:  # unhashable, so not bytes: refused just below
            signature = None
        if signature is None:
            if not isinstance(payload_digest, bytes):
                raise CryptoError("payload digest must be bytes")
            tag = hmac.digest(self._secret(signer), payload_digest, "sha256")
            signature = self._sign_memo[key] = Signature(signer, tag)
            self._verify_memo[(signer, payload_digest, tag)] = True
        return signature

    def verify(self, signature: Signature, payload_digest: bytes) -> bool:
        """Check that ``signature`` is valid for ``payload_digest``.

        Both arrive from the network: a signer, tag or digest of the
        wrong type (which the memo cannot hash, or the HMAC cannot take)
        is an invalid signature, not an error.
        """
        try:
            key = (signature.signer, payload_digest, signature.tag)
            valid = self._verify_memo.get(key)
            if valid is None:
                expected = hmac.digest(self._secret(signature.signer),
                                       payload_digest, "sha256")
                valid = self._verify_memo[key] = hmac.compare_digest(
                    expected, signature.tag)
        except TypeError:
            return False
        return valid

    def forged(self, signer: str) -> Signature:
        """Return an *invalid* signature claiming to be from ``signer``.

        Used by Byzantine fault injection to model forgery attempts, which
        must (and do) fail verification.
        """
        return Signature(signer=signer, tag=b"\x00" * 32)
