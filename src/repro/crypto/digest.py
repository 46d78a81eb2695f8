"""Canonical encoding and message digests.

Protocol safety arguments hinge on all correct nodes computing the *same*
digest for the same logical message, so the encoding must be canonical:
independent of dict insertion order, interning, or process identity. We
encode a small universe of types (primitives, bytes, enums, tuples, lists,
dicts, dataclasses) with explicit type tags, then hash with SHA-256. How
each type is encoded lives in :mod:`repro.crypto.schema`.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.crypto.schema import SCHEMAS, canonical_bytes

__all__ = ["canonical_bytes", "digest", "digest_hex"]


def digest(obj: Any) -> bytes:
    """SHA-256 digest of the canonical encoding of ``obj``.

    A frozen dataclass instance keeps what its walk yielded (see
    :class:`~repro.crypto.schema.Schema`) and, once asked for, the digest
    of those bytes beside them: protocol messages are immutable and fan
    out to many receivers, so the same object is digested repeatedly
    along the hot path. A mutable instance is walked and hashed afresh
    every time.
    """
    schema = SCHEMAS[type(obj)]
    if not schema.memo:
        return hashlib.sha256(canonical_bytes(obj)).digest()
    fields = obj.__dict__
    record = fields.get("_repro_memo")
    if record is None or record[0] is None:
        schema.encode(obj, bytearray())
        record = fields["_repro_memo"]
    value = record[2]
    if value is None:
        value = record[2] = hashlib.sha256(record[0]).digest()
    return value


def digest_hex(obj: Any) -> str:
    """Hex form of :func:`digest` (handy for logs and assertions)."""
    return digest(obj).hex()
