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

    Digests of frozen dataclass instances are memoised on the instance:
    protocol messages are immutable and fan out to many receivers, so the
    same object is digested repeatedly along the hot path. A mutable
    instance is hashed afresh every time.
    """
    if not SCHEMAS[type(obj)].memo:
        return hashlib.sha256(canonical_bytes(obj)).digest()
    value = obj.__dict__.get("_repro_digest")
    if value is None:
        value = hashlib.sha256(canonical_bytes(obj)).digest()
        object.__setattr__(obj, "_repro_digest", value)
    return value


def digest_hex(obj: Any) -> str:
    """Hex form of :func:`digest` (handy for logs and assertions)."""
    return digest(obj).hex()
