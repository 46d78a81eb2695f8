"""Signed message envelopes.

Every protocol message in this reproduction is a frozen dataclass wrapped in
a :class:`Signed` envelope: the sender signs the canonical digest of the
payload. Verification checks both the HMAC tag and that the signature's
signer matches the ``sender`` field embedded in the payload, so a node
cannot replay another node's message under its own identity.

:func:`sign_message` is the one place an honest envelope is made, and
:func:`redact` the one place one is cut down under its signature. The
seal counts how many elementary signature verifications a receiver
performs (outer signature, nested certificates, piggybacked signed
messages) and keeps that count on the envelope; the simulator charges
CPU time accordingly.

The module also provides the wire codec: :func:`encode_message` serializes
any registered payload to deterministic JSON and :func:`decode_message`
reconstructs it. Only types listed in :mod:`repro.messages.registry` can be
decoded, which is what makes the registry the single source of truth for
what may cross the wire.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any

from repro.crypto.digest import digest
from repro.crypto.keys import KeyRegistry, Signature
from repro.crypto.schema import SCHEMAS, vouch
from repro.errors import CryptoError, ProtocolError

__all__ = [
    "Message",
    "Signed",
    "sign_message",
    "redact",
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
    """Count signature verifications embedded in ``obj`` (recursively),
    without building its bytes. A value with no canonical form can be
    neither signed nor certified, and holds none."""
    try:
        return SCHEMAS[type(obj)].count(obj)
    except CryptoError:
        return 0


@dataclass(frozen=True)
class Signed:
    """A payload plus its sender's signature over the payload digest.

    Its ``_repro_memo`` is what the schema keeps on any frozen instance
    (:class:`~repro.crypto.schema.Schema`): place 2 names the
    :class:`KeyRegistry` that vouches for it, the one that sealed it or
    last found it valid.

    An envelope :func:`sign_message` sealed has no ``signature`` until
    something reads it: its record has a fourth place, the signer, and
    the signature is made from it and the registry in place 2, once, on
    the first read (DESIGN.md §10.1, "The seal, on demand"). Until then
    no other registry has vouched for it: checking it reads the
    signature first.
    """

    payload: Any
    signature: Signature

    def __getattr__(self, name: str) -> Any:
        # Reached only for an attribute the instance lacks: a sealed
        # envelope's signature, before anything has read it.
        fields = self.__dict__
        if name != "signature" or "_repro_memo" not in fields:
            raise AttributeError(name)
        _, _, keys, signer = fields["_repro_memo"]
        signature = fields["signature"] = keys.sign(signer,
                                                    digest(fields["payload"]))
        return signature

    @property
    def sender(self) -> str:
        """Claimed sender (the signature's signer), read without making
        the signature of a sealed envelope."""
        fields = self.__dict__
        if "signature" in fields:
            # What arrives as ``signature`` may be anything.
            return getattr(fields["signature"], "signer", None)
        return fields["_repro_memo"][3]

    def signature_units(self) -> int:
        """Total verifications needed to fully check this envelope: its
        own signature and every one its payload holds."""
        record = self.__dict__.get("_repro_memo")
        if record is not None and record[1] is not None:
            return record[1]
        return 1 + nested_signature_units(self.payload)


def sign_message(keys: KeyRegistry, signer: str, payload: Any) -> Signed:
    """Seal ``payload`` as ``signer``, and keep on the envelope what every
    receiver would re-derive: its verification count, and that ``keys``
    vouches for it.

    A payload the schema memoises is frozen and cannot change before its
    signature is read, so the digest and the tag wait for that read
    (:class:`Signed`); meanwhile only the count is walked, building no
    bytes. ``dataclasses.replace`` on either makes an instance without
    a record, and any envelope without one keeps paying the full check.
    Any other payload, and one that claims another sender (which no
    registry vouches for), is hashed and signed at once.
    """
    schema = SCHEMAS[type(payload)]
    if not schema.memo or getattr(payload, "sender", signer) != signer:
        return Signed(payload, keys.sign(signer, digest(payload)))
    envelope = object.__new__(Signed)
    fields = envelope.__dict__
    fields["payload"] = payload
    fields["_repro_memo"] = [None, 1 + schema.count(payload), keys, signer]
    return envelope


def redact(envelope: Signed, **fields: Any) -> Signed:
    """``envelope`` with digest-excluded ``fields`` of its payload
    replaced: what its signature covers is unchanged, so it still
    verifies. Nobody vouches for the copy yet; a receiver checks it in
    full."""
    payload = envelope.payload
    redacted = dataclasses.replace(payload, **fields)
    if digest(redacted) != digest(payload):
        raise CryptoError(f"cannot redact signed fields of "
                          f"{type(payload).__name__}: {sorted(fields)}")
    return Signed(redacted, envelope.signature)


def verify_signed(keys: KeyRegistry, signed: Signed) -> bool:
    """Verify the envelope's signature and sender-consistency.

    An envelope ``keys`` itself sealed, or found valid before, is
    answered from its record; ``keys`` vouches for a success whose
    payload is frozen, as the seal does. A signer that is not the
    payload's sender is refused before any signature is checked, and so
    is a payload with no canonical form.
    """
    record = signed.__dict__.get("_repro_memo")
    if record is not None and record[2] is keys:
        return True
    payload = signed.payload
    claimed = getattr(payload, "sender", None)
    if claimed is not None and claimed != signed.sender:
        return False
    try:
        payload_digest = digest(payload)
    except CryptoError:
        return False  # no canonical form: nobody can have signed it
    if not keys.verify(signed.signature, payload_digest):
        return False
    if SCHEMAS[type(payload)].memo:
        vouch(signed, keys)
    return True


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
