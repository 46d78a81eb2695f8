"""Replicated state machine interface.

Consensus orders *operations*; the application defines what they mean. Any
deterministic state machine can be replicated: PBFT replicas and Ziziphus
zones call :meth:`execute` for committed operations in commit order, and
checkpointing uses :meth:`snapshot` / :meth:`state_digest`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

__all__ = ["INTERNAL_SENDER_PREFIX", "StateMachine", "is_escrow",
           "is_internal"]

#: Prefix of the zone-internal identities (``xz:<xid>:<stage>``) under
#: which a zone orders its cross-zone escrow steps (core/cross_zone.py).
INTERNAL_SENDER_PREFIX = "xz:"


def is_escrow(opcode: Any) -> bool:
    """Whether ``opcode`` names a step of the cross-zone escrow
    (``xz-…``), which an application runs only for an internal sender."""
    return str(opcode).startswith("xz-")


def is_internal(sender: str) -> bool:
    """Whether ``sender`` is a zone-internal identity: the only sender an
    escrow opcode runs for, on every replica alike."""
    return sender.startswith(INTERNAL_SENDER_PREFIX)


class StateMachine(ABC):
    """A deterministic application replicated by consensus.

    Implementations must be deterministic: the same operation sequence must
    yield the same results and state digest on every replica.
    """

    @abstractmethod
    def execute(self, operation: tuple, client_id: str) -> Any:
        """Apply one committed operation and return its (deterministic)
        result, which replicas send back to the client."""

    @abstractmethod
    def snapshot(self) -> dict[str, Any]:
        """Return a full copy of application state (checkpointing)."""

    @abstractmethod
    def restore(self, snapshot: dict[str, Any]) -> None:
        """Replace application state with ``snapshot``."""

    @abstractmethod
    def state_digest(self) -> bytes:
        """Canonical digest of the current state (checkpoint agreement)."""

    def export_client(self, client_id: str) -> dict[str, Any]:
        """Extract the client's records ``R(c)`` for data migration.

        Default: empty; zone-hosted applications override.
        """
        return {}

    def import_client(self, client_id: str, records: dict[str, Any]) -> None:
        """Append a migrated client's records to the local database."""

    def evict_client(self, client_id: str) -> None:
        """Drop a migrated-away client's records (source-zone cleanup)."""

    @staticmethod
    def read_key(operation: Any, client_id: str) -> str | None:
        """The one store key ``client_id``'s read-only ``operation``
        evaluates to, whose value answers it as ``("ok", value)``: what
        the certified read path proves. None for an operation it does
        not serve — the default."""
        return None
