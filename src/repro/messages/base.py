"""Signed message envelopes.

Every protocol message in this reproduction is a frozen dataclass wrapped in
a :class:`Signed` envelope: the sender signs the canonical digest of the
payload. Verification checks both the HMAC tag and that the signature's
signer matches the ``sender`` field embedded in the payload, so a node
cannot replay another node's message under its own identity.

``signature_units`` walks the payload to count how many elementary signature
verifications a receiver performs (outer signature, nested certificates,
piggybacked signed messages); the simulator charges CPU time accordingly.

The module also provides the wire codec: :func:`encode_message` serializes
any registered payload to deterministic JSON and :func:`decode_message`
reconstructs it. Only types listed in :mod:`repro.messages.registry` can be
decoded, which is what makes the registry the single source of truth for
what may cross the wire.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.crypto.digest import digest
from repro.crypto.keys import KeyRegistry, Signature
from repro.crypto.schema import SCHEMAS
from repro.errors import ProtocolError

__all__ = [
    "Message",
    "Signed",
    "sign_message",
    "verify_signed",
    "nested_signature_units",
    "encode_message",
    "decode_message",
]


class Message:
    """Marker base class for top-level wire payloads.

    Every dataclass in :mod:`repro.messages` that travels on the network as
    the payload of a :class:`Signed` envelope subclasses this marker. The
    ``message-totality`` lint rule enforces that each subclass is listed in
    :data:`repro.messages.registry.WIRE_MESSAGES` and has a registered
    handler (or is delivered directly to clients). Nested value types such
    as :class:`~repro.messages.sync.Ballot` or
    :class:`~repro.messages.pbft.PreparedProof` are *not* messages — they
    only ever appear inside one.
    """

    __slots__ = ()


def nested_signature_units(obj: Any) -> int:
    """Count signature verifications embedded in ``obj`` (recursively)."""
    units = SCHEMAS[type(obj)].units
    return units(obj) if units is not None else 0


@dataclass(frozen=True)
class Signed:
    """A payload plus its sender's signature over the payload digest."""

    payload: Any
    signature: Signature

    @property
    def sender(self) -> str:
        """Claimed sender (the signature's signer)."""
        return self.signature.signer

    def signature_units(self) -> int:
        """Total verifications needed to fully check this envelope.

        Memoised per envelope: the same object is fanned out to many
        receivers, each of which charges the same verification cost.
        """
        units = self.__dict__.get("_repro_units")
        if units is None:
            units = 1 + nested_signature_units(self.payload)
            object.__setattr__(self, "_repro_units", units)
        return units


def sign_message(keys: KeyRegistry, signer: str, payload: Any) -> Signed:
    """Sign ``payload`` as ``signer`` and return the envelope."""
    return Signed(payload=payload, signature=keys.sign(signer, digest(payload)))


def verify_signed(keys: KeyRegistry, signed: Signed) -> bool:
    """Verify the envelope's signature and sender-consistency."""
    payload = signed.payload
    claimed = getattr(payload, "sender", None)
    if claimed is not None and claimed != signed.signature.signer:
        return False
    return keys.verify(signed.signature, digest(payload))


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------
#
# Messages are frozen dataclasses built from a small closed set of field
# types: JSON scalars, bytes, tuples, frozensets, str-keyed dicts, and
# other registered dataclasses. Each non-JSON type is encoded as a
# single-key tagged object so decoding is unambiguous; dataclasses carry
# their registered class name and are resolved through
# ``repro.messages.registry.codec_types()``.

def _decode_value(obj: Any, table: dict[str, type]) -> Any:
    if isinstance(obj, list):
        return [_decode_value(item, table) for item in obj]
    if isinstance(obj, dict):
        if "__bytes__" in obj:
            return bytes.fromhex(obj["__bytes__"])
        if "__tuple__" in obj:
            return tuple(_decode_value(item, table)
                         for item in obj["__tuple__"])
        if "__frozenset__" in obj:
            return frozenset(
                _decode_value(item, table) for item in obj["__frozenset__"])
        if "__map__" in obj:
            return {key: _decode_value(value, table)
                    for key, value in obj["__map__"].items()}
        if "__msg__" in obj:
            name = obj["__msg__"]
            cls = table.get(name)
            if cls is None:
                raise ProtocolError(
                    f"cannot decode unregistered wire type {name!r}; "
                    "see repro.messages.registry")
            fields = {key: _decode_value(value, table)
                      for key, value in obj["fields"].items()}
            return cls(**fields)
        raise ProtocolError(f"unrecognised wire object: {sorted(obj)}")
    return obj


def encode_message(message: Any) -> str:
    """Serialize a message (or :class:`Signed` envelope) to JSON.

    Output is deterministic (sorted keys, no whitespace), so equal
    messages always encode to identical strings.
    """
    return json.dumps(SCHEMAS[type(message)].wire(message), sort_keys=True,
                      separators=(",", ":"))


def decode_message(data: str) -> Any:
    """Reconstruct a message from :func:`encode_message` output.

    Raises :class:`~repro.errors.ProtocolError` if the data references a
    type not listed in :mod:`repro.messages.registry`.
    """
    # Imported here: the registry imports every message module, which in
    # turn import this one.
    from repro.messages.registry import codec_types

    return _decode_value(json.loads(data), codec_types())
