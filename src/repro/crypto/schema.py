"""The message schema: how each Python type takes part in a message.

Three walks visit a message: one yields the canonical bytes that
digests and signatures cover; one yields the count of signature
verifications a receiver is charged for, building no bytes; the third
yields the wire JSON. :data:`SCHEMAS` maps
``type(obj)`` to the three functions for that type, so a visit is one
table lookup. A type is resolved the first time a value of it is met
(nothing is compiled at import), in the precedence the encodings were
defined with (DESIGN.md §10): a dataclass is compiled once into closures
over its field names and its pre-encoded header and field-name bytes.
"""

from __future__ import annotations

import dataclasses
import struct
from enum import Enum
from operator import itemgetter
from typing import Any, Callable, NamedTuple

from repro.errors import CryptoError, ProtocolError

__all__ = ["SCHEMAS", "Schema", "canonical_bytes", "vouch", "vouched"]

_u32 = struct.Struct(">I").pack


class Schema(NamedTuple):
    """What the three walks do with values of one type."""

    #: ``encode(obj, out)`` appends the canonical bytes of ``obj``.
    encode: Callable[[Any, bytearray], None]
    #: ``wire(obj)`` is the JSON-ready form.
    wire: Callable[[Any], Any]
    #: ``count(obj)`` is how many signature verifications ``obj`` holds;
    #: it raises where ``encode`` raises, without building the bytes.
    count: Callable[[Any], int]
    #: Instances are immutable and have a ``__dict__``, where ``encode``
    #: and ``count`` keep what they yielded as ``_repro_memo``:
    #: ``[canonical bytes, verifications, who vouches for it]``, each
    #: ``None`` until something yields it; :func:`vouch` sets the last on
    #: what a registry seals or checks: envelope, signature, threshold
    #: certificate. A sealed envelope's record has a fourth place, its
    #: signer (DESIGN.md §10.1).
    memo: bool = False


class _Schemas(dict):
    def __missing__(self, cls: type) -> Schema:
        schema = next(schema for base, schema in _BUILTINS.items()
                      if issubclass(cls, base))
        if schema is _OUTSIDE and dataclasses.is_dataclass(cls):
            schema = _compile(cls)
        if issubclass(cls, Enum):
            # Hashed as its value whatever it mixes in (``Region(str,
            # Enum)``); shipped as the mix-in type, if any.
            schema = schema._replace(encode=_enc_enum, count=_count_leaf)
        self[cls] = schema
        return schema


#: ``type -> Schema``; a missing type is resolved and stored on lookup.
SCHEMAS: dict[type, Schema] = _Schemas()


def canonical_bytes(obj: Any) -> bytes:
    """Encode ``obj`` into a canonical byte string."""
    out = bytearray()
    SCHEMAS[type(obj)].encode(obj, out)
    return bytes(out)


def vouch(obj: Any, token: Any) -> None:
    """Record on ``obj`` that ``token`` found it sound. The caller makes
    sure ``obj`` is exactly the type it judged, of a memoised schema."""
    fields = obj.__dict__
    record = fields.get("_repro_memo")
    if record is None:
        fields["_repro_memo"] = [None, None, token]
    else:
        record[2] = token


def vouched(obj: Any, token: Any) -> bool:
    """Whether ``token`` vouches for ``obj``: the very registry (a
    registry has no ``__eq__``, so it compares by identity, inside a
    tuple too) and, where the token is a tuple, equal further parts."""
    record = obj.__dict__.get("_repro_memo")
    if record is None:
        return False
    held = record[2]
    return held is token or held == token


def _enc_singleton(obj: bool | None, out: bytearray) -> None:
    out += b"N" if obj is None else b"T" if obj else b"F"


def _enc_enum(obj: Enum, out: bytearray) -> None:
    value = obj.value
    SCHEMAS[type(value)].encode(value, out)


def _enc_int(obj: int, out: bytearray) -> None:
    raw = str(obj).encode()
    out += b"i" + _u32(len(raw)) + raw


def _enc_float(obj: float, out: bytearray) -> None:
    out += b"f" + struct.pack(">d", obj)


def _enc_str(obj: str, out: bytearray) -> None:
    raw = obj.encode()
    out += b"s" + _u32(len(raw)) + raw


def _enc_bytes(obj: bytes | bytearray, out: bytearray) -> None:
    out += b"b" + _u32(len(obj)) + obj


def _enc_seq(obj: tuple | list, out: bytearray) -> None:
    out += b"l" + _u32(len(obj))
    for item in obj:
        kind = type(item)
        # The commonest leaves inline, as _enc_str/_enc_int/_enc_bytes.
        if kind is str:
            raw = item.encode()
            out += b"s" + _u32(len(raw)) + raw
        elif kind is int:
            raw = str(item).encode()
            out += b"i" + _u32(len(raw)) + raw
        elif kind is bytes:
            out += b"b" + _u32(len(item)) + item
        else:
            SCHEMAS[kind].encode(item, out)


def _enc_dict(obj: dict, out: bytearray) -> None:
    # Each key is encoded once and the entries ordered by those bytes
    # (stably, as keys of different types can encode alike).
    entries = []
    for key, value in obj.items():
        encoded = bytearray()
        SCHEMAS[type(key)].encode(key, encoded)
        entries.append((encoded, value))
    entries.sort(key=itemgetter(0))
    out += b"d" + _u32(len(entries))
    for encoded, value in entries:
        out += encoded
        SCHEMAS[type(value)].encode(value, out)


def _enc_frozenset(obj: frozenset, out: bytearray) -> None:
    out += b"l" + _u32(len(obj)) + b"".join(sorted(map(canonical_bytes, obj)))


def _no_canonical_form(obj: Any, out: bytearray | None = None) -> int:
    raise CryptoError(f"cannot canonically encode {type(obj).__name__}")


def _count_leaf(obj: Any) -> int:
    return 0


def _count_seq(obj: tuple | list) -> int:
    units = 0
    for item in obj:
        kind = type(item)
        if kind is not str and kind is not int and kind is not bytes:
            units += SCHEMAS[kind].count(item)
    return units


def _count_dict(obj: dict) -> int:
    units = 0
    for key, value in obj.items():
        SCHEMAS[type(key)].count(key)  # holds none, but must be encodable
        units += SCHEMAS[type(value)].count(value)
    return units


def _count_frozenset(obj: frozenset) -> int:
    for item in obj:
        SCHEMAS[type(item)].count(item)
    return 0


def _same(obj: Any) -> Any:
    return obj


def _wire_list(obj: Any) -> list:
    return [SCHEMAS[type(item)].wire(item) for item in obj]


def _wire_dict(obj: dict) -> dict:
    for key in obj:
        if not isinstance(key, str):
            raise ProtocolError(
                f"cannot encode dict key of type {type(key).__name__}; "
                "wire dicts must be keyed by str")
    return {"__map__": dict(zip(obj, _wire_list(obj.values())))}


def _no_wire_form(obj: Any) -> Any:
    raise ProtocolError(
        f"cannot encode value of type {type(obj).__name__} for the wire")


#: Anything else has no canonical or wire form.
_OUTSIDE = Schema(_no_canonical_form, _no_wire_form, _no_canonical_form)
#: Built-in types in precedence order (``bool`` before ``int``): the first a
#: type subclasses gives its schema; dataclasses are those left at ``object``.
_BUILTINS = {
    type(None): Schema(_enc_singleton, _same, _count_leaf),
    bool: Schema(_enc_singleton, _same, _count_leaf),
    int: Schema(_enc_int, _same, _count_leaf),
    float: Schema(_enc_float, _same, _count_leaf),
    str: Schema(_enc_str, _same, _count_leaf),
    bytes: Schema(_enc_bytes, lambda obj: {"__bytes__": obj.hex()},
                  _count_leaf),
    bytearray: Schema(_enc_bytes, _no_wire_form, _count_leaf),
    tuple: Schema(_enc_seq, lambda obj: {"__tuple__": _wire_list(obj)},
                  _count_seq),
    list: Schema(_enc_seq, _wire_list, _count_seq),
    dict: Schema(_enc_dict, _wire_dict, _count_dict),
    frozenset: Schema(_enc_frozenset,
                      lambda obj: {"__frozenset__": sorted(_wire_list(obj))},
                      _count_frozenset),
    object: _OUTSIDE,
}


def _compile(cls: type) -> Schema:
    """The schema of one dataclass, closed over its fields."""
    fields = dataclasses.fields(cls)
    names = tuple(f.name for f in fields)
    hashed = tuple((canonical_bytes(f.name), f.name) for f in fields
                   if f.metadata.get("digest", True))
    hashed_names = tuple(name for _, name in hashed)
    unhashed = tuple(f.name for f in fields
                     if not f.metadata.get("digest", True))
    raw = cls.__name__.encode()
    header = b"o" + _u32(len(raw)) + raw + _u32(len(hashed))
    has_dict = cls.__dictoffset__ != 0
    # Immutable instances memoise what the walks yield: messages nest
    # shared parts (one certificate rides in many envelopes), walked once
    # and spliced thereafter. ``slots=True`` leaves nowhere to memoise.
    memo = cls.__dataclass_params__.frozen and has_dict
    # A class that states its own verification cost (a signature, a
    # certificate, an envelope) is charged that, not what its fields hold.
    own = getattr(cls, "signature_units", None)

    def field_values(obj: Any) -> dict[str, Any]:
        # Read as attributes: ``slots=True`` leaves no ``__dict__``, and
        # an envelope sealed on demand makes its signature when read.
        return {name: getattr(obj, name) for name in names}

    def encode(obj: Any, out: bytearray) -> None:
        fields = obj.__dict__ if has_dict else field_values(obj)
        record = fields.get("_repro_memo") if memo else None
        if record is not None:
            if record[0] is not None:
                out += record[0]
                return
            # Sealed, checked or counted before it was ever encoded.
            fields = field_values(obj)
        sub = bytearray(header)
        for key, name in hashed:
            sub += key
            value = fields[name]
            kind = type(value)
            # The commonest leaves inline, as _enc_str/_enc_int/_enc_bytes.
            if kind is str:
                raw = value.encode()
                sub += b"s" + _u32(len(raw)) + raw
            elif kind is int:
                raw = str(value).encode()
                sub += b"i" + _u32(len(raw)) + raw
            elif kind is bytes:
                sub += b"b" + _u32(len(value)) + value
            else:
                SCHEMAS[kind].encode(value, sub)
        out += sub
        if record is not None:
            record[0] = bytes(sub)
        elif memo:
            fields["_repro_memo"] = [bytes(sub), None, None]

    def count(obj: Any) -> int:
        fields = obj.__dict__ if has_dict else field_values(obj)
        record = fields.get("_repro_memo") if memo else None
        if record is not None and record[1] is not None:
            return record[1]
        units = 0
        for name in hashed_names:
            value = fields[name]
            kind = type(value)
            if kind is not str and kind is not int and kind is not bytes:
                units += SCHEMAS[kind].count(value)
        if own is not None:
            units = own(obj)
        else:
            for name in unhashed:  # counted, not hashed
                value = fields[name]
                units += SCHEMAS[type(value)].count(value)
        if record is not None:
            record[1] = units
        elif memo:
            fields["_repro_memo"] = [None, units, None]
        return units

    def wire(obj: Any) -> dict:
        values = _wire_list([getattr(obj, name) for name in names])
        return {"__msg__": cls.__name__, "fields": dict(zip(names, values))}

    return Schema(encode, wire, count, memo)
