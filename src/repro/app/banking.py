"""Banking application (the paper's evaluation workload).

"We implemented ... a simple banking application on top of it where the
client data is stored in a key-value store replicated on the nodes in each
zone. Each client initiates local transactions to transfer money from its
account to another client's account within the same zone."

Client records live under the key prefix ``client/<id>/`` so the data
migration protocol can extract and append ``R(c)`` wholesale.
"""

from __future__ import annotations

from typing import Any

from repro.app.base import StateMachine, is_escrow, is_internal
from repro.storage.kvstore import KVStore

__all__ = ["BankingApp", "client_prefix"]


def client_prefix(client_id: str) -> str:
    """Key prefix holding client ``R(c)`` records."""
    return f"client/{client_id}/"


def _balance_key(client_id: str) -> str:
    return client_prefix(client_id) + "balance"


class BankingApp(StateMachine):
    """Deterministic micropayment ledger over a KV store.

    Operations (all tuples, first element is the opcode):

    - ``("open", initial_balance)`` — create the issuing client's account.
    - ``("deposit", amount)`` — credit the issuing client.
    - ``("transfer", dst_client, amount)`` — move funds to another account
      hosted in the same zone.
    - ``("balance",)`` — read the issuing client's balance.

    The ``xz-…`` operations are the cross-zone escrow's steps
    (:func:`~repro.app.base.is_escrow`), run only for a zone-internal
    sender (:func:`~repro.app.base.is_internal`).
    """

    def __init__(self, store: KVStore | None = None) -> None:
        self.store = store or KVStore()
        self.executed_ops = 0

    # ------------------------------------------------------------------
    # StateMachine interface
    # ------------------------------------------------------------------
    def execute(self, operation: tuple, client_id: str) -> Any:
        self.executed_ops += 1
        opcode = operation[0]
        if opcode == "open":
            return self._open(client_id, operation[1])
        if opcode == "deposit":
            return self._deposit(client_id, operation[1])
        if opcode == "transfer":
            return self._transfer(client_id, operation[1], operation[2])
        if opcode == "balance":
            return self._balance(client_id)
        if is_escrow(opcode) and not is_internal(client_id):
            return ("err", "internal-only")
        if opcode == "xz-apply":
            # Replicated plain operation (§V-B): run under the real client.
            return self.execute(operation[2], operation[1])
        if opcode == "xz-check":
            return self._xz_check(operation[1])
        if opcode == "xz-debit":
            return self._xz_debit(operation[1], operation[2], operation[3])
        if opcode == "xz-credit":
            return self._xz_credit(operation[1], operation[2], operation[3])
        if opcode == "xz-finalize":
            return self._xz_finalize(operation[1])
        if opcode == "xz-release":
            return self._xz_release(operation[1])
        if opcode == "noop":
            return ("ok",)
        return ("err", "unknown-op")

    def snapshot(self) -> dict[str, Any]:
        return self.store.snapshot()

    def restore(self, snapshot: dict[str, Any]) -> None:
        self.store.restore(snapshot)

    def state_digest(self) -> bytes:
        return self.store.state_digest()

    def export_client(self, client_id: str) -> dict[str, Any]:
        return self.store.export_prefix(client_prefix(client_id))

    def import_client(self, client_id: str, records: dict[str, Any]) -> None:
        self.store.import_records(records)

    def evict_client(self, client_id: str) -> None:
        self.store.delete_prefix(client_prefix(client_id))

    @staticmethod
    def read_key(operation: Any, client_id: str) -> str | None:
        if type(operation) is tuple and operation == ("balance",):
            return _balance_key(client_id)
        return None

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def has_account(self, client_id: str) -> bool:
        """Whether this zone hosts the client's account."""
        return _balance_key(client_id) in self.store

    def balance_of(self, client_id: str) -> int:
        """Balance of a hosted account (0 if absent)."""
        return self.store.get(_balance_key(client_id), 0)

    def total_balance(self) -> int:
        """Sum of all hosted balances (conservation checks in tests)."""
        return sum(self.store.get(key) for key in self.store.keys()
                   if key.endswith("/balance"))

    def _open(self, client_id: str, initial_balance: int) -> tuple:
        key = _balance_key(client_id)
        if key in self.store:
            return ("ok", self.store.get(key))
        self.store.put(key, int(initial_balance))
        return ("ok", int(initial_balance))

    def _deposit(self, client_id: str, amount: int) -> tuple:
        key = _balance_key(client_id)
        if key not in self.store:
            return ("err", "no-account")
        balance = self.store.get(key) + int(amount)
        self.store.put(key, balance)
        return ("ok", balance)

    def _transfer(self, client_id: str, dst_client: str, amount: int) -> tuple:
        src_key = _balance_key(client_id)
        dst_key = _balance_key(dst_client)
        if src_key not in self.store:
            return ("err", "no-account")
        if dst_key not in self.store:
            return ("err", "no-dst-account")
        amount = int(amount)
        if amount < 0:
            return ("err", "negative-amount")
        src_balance = self.store.get(src_key)
        if src_balance < amount:
            return ("err", "insufficient-funds")
        self.store.put(src_key, src_balance - amount)
        self.store.put(dst_key, self.store.get(dst_key) + amount)
        return ("ok", src_balance - amount)

    def _balance(self, client_id: str) -> tuple:
        key = _balance_key(client_id)
        if key not in self.store:
            return ("err", "no-account")
        return ("ok", self.store.get(key))

    # ------------------------------------------------------------------
    # Cross-zone escrow (paper §IV.B.3; see repro.core.cross_zone)
    # ------------------------------------------------------------------
    def _hold_key(self, xid: str) -> str:
        return f"xz/hold/{xid}"

    def _xz_check(self, step: tuple) -> tuple:
        """Prepare-time validation of a finalize step (read-only)."""
        if step and step[0] == "xz-credit":
            if not self.has_account(step[1]):
                return ("err", "no-dst-account")
            return ("ok", "creditable")
        return ("ok", "nothing-to-check")

    def _xz_debit(self, client_id: str, amount: int, xid: str) -> tuple:
        """Prepare step at the paying zone: place the funds in escrow."""
        key = _balance_key(client_id)
        if key not in self.store:
            return ("err", "no-account")
        amount = int(amount)
        if amount < 0:
            return ("err", "negative-amount")
        balance = self.store.get(key)
        if balance < amount:
            return ("err", "insufficient-funds")
        self.store.put(key, balance - amount)
        self.store.put(self._hold_key(xid), (client_id, amount))
        return ("ok", balance - amount)

    def _xz_credit(self, client_id: str, amount: int, xid: str) -> tuple:
        """Finalize step at a receiving zone: credit the payee.

        If the payee's account vanished between check and finalize (it
        migrated away), the credit lands in the zone's unclaimed-funds
        escrow instead of being lost — an auditable, conserving fallback.
        """
        key = _balance_key(client_id)
        if key not in self.store:
            unclaimed = f"xz/unclaimed/{client_id}"
            self.store.put(unclaimed, self.store.get(unclaimed, 0) + int(amount))
            return ("ok", "unclaimed")
        self.store.put(key, self.store.get(key) + int(amount))
        return ("ok", self.store.get(key))

    def _xz_finalize(self, xid: str) -> tuple:
        """Commit at the paying zone: the escrowed funds leave for good."""
        self.store.delete(self._hold_key(xid))
        return ("ok", "finalized")

    def _xz_release(self, xid: str) -> tuple:
        """Abort at the paying zone: refund the escrowed funds."""
        hold = self.store.get(self._hold_key(xid))
        if hold is None:
            return ("ok", "no-hold")
        client_id, amount = hold
        key = _balance_key(client_id)
        self.store.put(key, self.store.get(key, 0) + amount)
        self.store.delete(self._hold_key(xid))
        return ("ok", "released")

    def held_total(self) -> int:
        """Sum of all escrowed amounts (conservation checks in tests)."""
        return sum(self.store.get(key)[1] for key in self.store.keys()
                   if key.startswith("xz/hold/"))
