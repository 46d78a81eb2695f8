"""Byzantine behaviour injection.

A node's outbound traffic passes through its :class:`Behavior`, which may
drop, corrupt, or equivocate. The key modelling constraint (matching the
paper's adversary): a Byzantine node can never produce a *valid* signature
for another identity — forged envelopes carry garbage tags and fail
verification at correct receivers.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.crypto.digest import digest
from repro.crypto.keys import KeyRegistry
from repro.messages.base import Signed, sign_message

__all__ = [
    "Behavior",
    "HonestBehavior",
    "CrashBehavior",
    "SilentBehavior",
    "CorruptSignatureBehavior",
    "EquivocatingBehavior",
    "StaleReadBehavior",
    "FabricateReadBehavior",
    "BEHAVIOR_NAMES",
    "make_behavior",
]


class Behavior:
    """Strategy controlling how a node emits messages."""

    name = "honest"

    def outbound(self, keys: KeyRegistry, signer: str, dst: str,
                 payload: Any) -> Signed | None:
        """Produce the envelope actually sent to ``dst`` (None = drop)."""
        raise NotImplementedError


class HonestBehavior(Behavior):
    """Signs and sends every message faithfully."""

    def outbound(self, keys: KeyRegistry, signer: str, dst: str,
                 payload: Any) -> Signed | None:
        return sign_message(keys, signer, payload)


class CrashBehavior(Behavior):
    """Fail-stop: sends nothing (receive side is silenced by Process.crash)."""

    name = "crash"

    def outbound(self, keys: KeyRegistry, signer: str, dst: str,
                 payload: Any) -> Signed | None:
        return None


class SilentBehavior(CrashBehavior):
    """Byzantine-silent: stays up (receives, runs timers) but never sends.

    Distinct from crash in that the node continues to consume messages,
    modelling a malicious participant withholding its votes.
    """

    name = "silent"


class CorruptSignatureBehavior(Behavior):
    """Sends every message with an invalid signature (forgery attempt)."""

    name = "corrupt-signature"

    def outbound(self, keys: KeyRegistry, signer: str, dst: str,
                 payload: Any) -> Signed | None:
        return Signed(payload=payload, signature=keys.forged(signer))


class EquivocatingBehavior(Behavior):
    """Equivocates: mutates vote digests for half of the receivers.

    Models a malicious primary/backup sending conflicting messages to
    different replicas; payloads carrying a digest-bearing field are forked
    into two inconsistent variants keyed by the receiver id.
    """

    name = "equivocate"

    _FORKABLE_FIELDS = ("batch_digest", "endorse_digest", "request_digest")

    def outbound(self, keys: KeyRegistry, signer: str, dst: str,
                 payload: Any) -> Signed | None:
        # Deterministic split (Python's hash() is salted per process).
        fork = sum(dst.encode()) % 2 == 0
        if fork and dataclasses.is_dataclass(payload):
            for field_name in self._FORKABLE_FIELDS:
                if hasattr(payload, field_name):
                    bogus = digest(("equivocation", signer, field_name))
                    payload = dataclasses.replace(payload, **{field_name: bogus})
                    break
        return sign_message(keys, signer, payload)


class StaleReadBehavior(Behavior):
    """Serves certified reads from a frozen watermark certificate.

    The replica pins the first served read it ships to each client —
    certificate, value and proof — and keeps replaying it on every later
    ``ReadReply`` to that client: a genuine but ever-older view of the
    zone. The certificate and the proof stay valid, so the attack is only
    caught by the client's staleness-bound check (``read.stale`` ->
    transactional fallback), never by verification: exactly the
    freshness attack the bound exists for.
    """

    name = "stale-read"

    def __init__(self) -> None:
        self._pinned: dict[str, tuple] = {}

    def outbound(self, keys: KeyRegistry, signer: str, dst: str,
                 payload: Any) -> Signed | None:
        cert = getattr(payload, "cert", None)
        if cert is not None and hasattr(payload, "client_id"):
            cert, result, proof = self._pinned.setdefault(
                payload.client_id, (cert, payload.result, payload.proof))
            payload = dataclasses.replace(payload, cert=cert, result=result,
                                          proof=proof)
        return sign_message(keys, signer, payload)


class FabricateReadBehavior(Behavior):
    """Answers certified reads with claims its certificate cannot bind.

    The replica inflates the certificate's claimed sequence and swaps in
    a bogus result. The quorum signatures still cover the *original*
    watermark body, so ``cert.body() != certificate.payload_digest`` at
    the client — provable fabrication (``read.invalid``) that lands the
    sender in the monitor's culpability table.
    """

    name = "fabricate-read"

    def outbound(self, keys: KeyRegistry, signer: str, dst: str,
                 payload: Any) -> Signed | None:
        cert = getattr(payload, "cert", None)
        if cert is not None and hasattr(payload, "client_id"):
            bogus = dataclasses.replace(cert,
                                        sequence=cert.sequence + 1_000_000)
            payload = dataclasses.replace(payload, cert=bogus, result=0)
        return sign_message(keys, signer, payload)


_REGISTRY = {
    cls.name: cls
    for cls in (HonestBehavior, CrashBehavior, SilentBehavior,
                CorruptSignatureBehavior, EquivocatingBehavior,
                StaleReadBehavior, FabricateReadBehavior)
}

#: Every instantiable behaviour name, in registration order.
BEHAVIOR_NAMES: tuple[str, ...] = tuple(_REGISTRY)


def make_behavior(name: str) -> Behavior:
    """Instantiate a behaviour by name (``"honest"``, ``"silent"``, ...)."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        from repro.errors import ConfigurationError
        raise ConfigurationError(
            f"unknown behaviour {name!r}; valid names: "
            f"{', '.join(BEHAVIOR_NAMES)}") from None
