"""Trust-boundary model for the verify-before-trust taint analysis.

This module is the single place that names what the analysis considers

- a **source**: every field of an incoming wire ``Message`` (the payload
  argument of a ``register_handler`` target, or the context argument of
  an endorsement-kind validator). The envelope argument is *sealed*: the
  ``Signed`` wrapper may be stored or relayed intact (receivers
  re-verify), but any projection through ``.payload`` is tainted.
- a **sanitizer** (declassification point): signature verification
  (``KeyRegistry.verify`` / ``verify_signed``), certificate validation
  (``CertificateVerifier`` / ``ThresholdVerifier`` / zone
  ``cert_valid``), digest equality against a locally computed digest,
  quorum-threshold comparisons, watermark/bounds comparisons, and
  membership checks against node-local state.
- a **sink**: writes into replica/protocol state (``self.*`` attribute
  or mapping assignment, mutation of locals aliased to ``self`` state),
  storage/application mutation calls, re-signing, and outbound sends.

The engine in :mod:`repro.analysis.taint.engine` interprets handler
bodies against this model; ``DESIGN.md`` §13 documents the semantics.
"""

from __future__ import annotations

import ast

__all__ = [
    "MUTATOR_METHODS",
    "STORAGE_SINKS",
    "SEND_SINKS",
    "SIGN_SINKS",
    "SIGNED_CONSTRUCTOR",
    "is_sanitizer_name",
    "call_name",
    "identifier_text",
    "mentions_digest",
    "mentions_quorum",
    "mentions_watermark",
]

#: Mutating container methods: tainted *arguments* flowing into one of
#: these on node-local state are a state write.
MUTATOR_METHODS = frozenset({
    "add", "append", "appendleft", "extend", "insert", "push",
    "setdefault", "update", "vote",
})

#: Storage / application mutation entry points (by method name).
STORAGE_SINKS = frozenset({
    "adopt", "apply_migration", "delete_prefix", "execute",
    "import_client", "import_records", "mark_current", "mark_stale",
    "put", "record_local", "register", "restore",
    "store_remote_checkpoint",
})

#: Outbound transmission: tainted values must not be relayed under this
#: node's own authority (forwarding a *sealed* envelope intact is fine).
SEND_SINKS = frozenset({"forward", "multicast_signed", "reply_to_client",
                        "send", "send_signed"})

#: Re-signing: putting this node's signature on attacker-chosen bytes.
SIGN_SINKS = frozenset({"sign", "sign_message"})

#: Wrapping a value in a fresh ``Signed`` envelope also re-signs it.
SIGNED_CONSTRUCTOR = "Signed"

#: Call names that never certify anything even though they contain a
#: sanitizer-ish substring ("check" is in "checkpoint").
_SANITIZER_DENY = ("checkpoint",)


def is_sanitizer_name(name: str) -> bool:
    """Heuristic: does this callable name denote a validation helper?

    Matches ``verify``/``verify_signed``/``verifier`` methods,
    ``valid``/``validate``/``cert_valid``/``group_cert_valid`` helpers,
    ``check_*`` predicates, and corpus-idiom ``*_ok`` predicates.
    """
    lowered = name.lower()
    for deny in _SANITIZER_DENY:
        if deny in lowered:
            return False
    return ("valid" in lowered or "verif" in lowered
            or lowered.startswith("check") or lowered.endswith("_ok"))


def call_name(call: ast.Call) -> str:
    """The final callable name of a call (``a.b.c(...)`` -> ``"c"``)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def identifier_text(node: ast.AST) -> str:
    """Every Name id and Attribute attr in ``node``, space-joined."""
    parts: list[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            parts.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            parts.append(sub.attr)
    return " ".join(parts).lower()


def mentions_digest(node: ast.AST) -> bool:
    """Does the expression reference a digest (name or computation)?"""
    return "digest" in identifier_text(node)


def mentions_quorum(node: ast.AST) -> bool:
    """Does the expression reference a quorum/majority threshold?"""
    text = identifier_text(node)
    return "quorum" in text or "majority" in text or "threshold" in text


def mentions_watermark(node: ast.AST) -> bool:
    """Does the expression reference a watermark / window bound?"""
    text = identifier_text(node)
    return ("water" in text or "bound" in text or "limit" in text
            or "window" in text)
