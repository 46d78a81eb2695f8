"""Healthcare application (the paper's motivating scenario, §II).

Edge servers store and process readings from patients' devices to enable
remote patient monitoring. Patients are mobile — when they move between
spatial zones their record follows them through the migration protocol —
and network-wide policies (insurance rules) are enforced via the global
system meta-data.
"""

from __future__ import annotations

from typing import Any

from repro.app.base import StateMachine, is_escrow, is_internal
from repro.storage.kvstore import KVStore

__all__ = ["HealthcareApp", "patient_prefix"]

#: Readings retained per (patient, metric); bounds state growth.
HISTORY_LIMIT = 32


def patient_prefix(patient_id: str) -> str:
    """Key prefix holding patient ``R(c)`` records."""
    return f"client/{patient_id}/"


class HealthcareApp(StateMachine):
    """Deterministic remote-patient-monitoring state machine.

    Operations:

    - ``("admit", age)`` — register the patient at this zone.
    - ``("reading", metric, value)`` — record a device reading; returns an
      alert flag when the value crosses the metric's threshold.
    - ``("prescribe", drug, dose)`` — append to the prescription list.
    - ``("history", metric)`` — read recent readings for a metric.

    The ``xz-…`` operations are the cross-zone escrow's steps
    (:func:`~repro.app.base.is_escrow`), run only for a zone-internal
    sender (:func:`~repro.app.base.is_internal`).
    """

    #: Alert thresholds per metric (deterministic and application-defined).
    THRESHOLDS = {"heart_rate": 120, "glucose": 180, "systolic_bp": 160}

    def __init__(self, store: KVStore | None = None) -> None:
        self.store = store or KVStore()
        self.executed_ops = 0
        self.alerts_raised = 0

    # ------------------------------------------------------------------
    # StateMachine interface
    # ------------------------------------------------------------------
    def execute(self, operation: tuple, client_id: str) -> Any:
        self.executed_ops += 1
        opcode = operation[0]
        if opcode == "admit":
            return self._admit(client_id, operation[1])
        if opcode == "reading":
            return self._reading(client_id, operation[1], operation[2])
        if opcode == "prescribe":
            return self._prescribe(client_id, operation[1], operation[2])
        if opcode == "history":
            return self._history(client_id, operation[1])
        if is_escrow(opcode) and not is_internal(client_id):
            return ("err", "internal-only")
        if opcode == "xz-apply":
            # Replicated plain operation (§V-B): run under the real client.
            return self.execute(operation[2], operation[1])
        if opcode == "xz-check":
            return ("ok", "nothing-to-check")
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
        return self.store.export_prefix(patient_prefix(client_id))

    def import_client(self, client_id: str, records: dict[str, Any]) -> None:
        self.store.import_records(records)

    def evict_client(self, client_id: str) -> None:
        self.store.delete_prefix(patient_prefix(client_id))

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def has_patient(self, patient_id: str) -> bool:
        """Whether this zone hosts the patient's record."""
        return (patient_prefix(patient_id) + "admitted") in self.store

    def _admit(self, patient_id: str, age: int) -> tuple:
        key = patient_prefix(patient_id) + "admitted"
        if key in self.store:
            return ("ok", "already-admitted")
        self.store.put(key, True)
        self.store.put(patient_prefix(patient_id) + "age", int(age))
        return ("ok", "admitted")

    def _reading(self, patient_id: str, metric: str, value: int) -> tuple:
        if not self.has_patient(patient_id):
            return ("err", "not-admitted")
        key = patient_prefix(patient_id) + f"readings/{metric}"
        history = list(self.store.get(key, ()))
        history.append(int(value))
        self.store.put(key, tuple(history[-HISTORY_LIMIT:]))
        threshold = self.THRESHOLDS.get(metric)
        if threshold is not None and value > threshold:
            self.alerts_raised += 1
            return ("alert", metric, value)
        return ("ok", metric, value)

    def _prescribe(self, patient_id: str, drug: str, dose: int) -> tuple:
        if not self.has_patient(patient_id):
            return ("err", "not-admitted")
        key = patient_prefix(patient_id) + "prescriptions"
        scripts = list(self.store.get(key, ()))
        scripts.append((drug, int(dose)))
        self.store.put(key, tuple(scripts))
        return ("ok", len(scripts))

    def _history(self, patient_id: str, metric: str) -> tuple:
        if not self.has_patient(patient_id):
            return ("err", "not-admitted")
        key = patient_prefix(patient_id) + f"readings/{metric}"
        return ("ok", self.store.get(key, ()))
