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

from repro.crypto.schema import canonical_bytes

__all__ = ["canonical_bytes", "digest", "digest_hex"]


def digest(obj: Any) -> bytes:
    """SHA-256 digest of the canonical encoding of ``obj``. A frozen
    dataclass instance keeps its canonical bytes (see
    :class:`~repro.crypto.schema.Schema`), so hashing it again walks
    nothing; the digest itself is not kept."""
    return hashlib.sha256(canonical_bytes(obj)).digest()


def digest_hex(obj: Any) -> str:
    """Hex form of :func:`digest` (handy for logs and assertions)."""
    return digest(obj).hex()
