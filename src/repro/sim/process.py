"""Node process abstraction with a CPU service-time model.

Each simulated node is a :class:`Process`: a single-server FIFO queue. When
the network delivers a message, the node *occupies its CPU* for a service
time derived from :class:`CostModel` (base dispatch cost plus one unit per
signature that must be verified). The message's handler side-effects occur
when processing completes. Under load, messages queue behind ``busy_until``
and the node saturates — which is what produces the throughput-vs-clients
curves of the paper's evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sim.events import EventHandle, Simulator

__all__ = ["CostModel", "Process"]


@dataclass
class CostModel:
    """Per-message CPU cost model (milliseconds).

    Attributes:
        base_ms: fixed cost of dispatching any message.
        verify_ms: cost of verifying one signature. Messages may expose a
            ``signature_units()`` method reporting how many individual
            signature verifications they require (e.g. a certificate of
            ``2f+1`` signatures costs ``2f+1`` units; a threshold signature
            costs one).
        execute_ms: cost of executing one application operation.
    """

    base_ms: float = 0.020
    verify_ms: float = 0.045
    sign_ms: float = 0.030
    send_ms: float = 0.004
    execute_ms: float = 0.010

    def send_time(self, destinations: int) -> float:
        """CPU time to sign a message once and emit it to N destinations."""
        return self.sign_ms + self.send_ms * destinations

    def execution_time(self, operations: int = 1) -> float:
        """CPU time to apply ``operations`` state-machine operations."""
        return self.execute_ms * operations


class Process:
    """Base class for every simulated network participant.

    Subclasses override :meth:`on_message`. Crashed processes silently drop
    everything (messages and timers), modelling a fail-stop node; Byzantine
    behaviours are layered on top in :mod:`repro.pbft.faults`.
    """

    def __init__(self, sim: Simulator, node_id: str,
                 cost_model: CostModel | None = None) -> None:
        self.sim = sim
        self.node_id = node_id
        self.cost_model = cost_model or CostModel()
        self.crashed = False
        self._busy_until = 0.0
        self.messages_handled = 0
        #: Accumulated CPU time (ms) this node has been charged.
        self.cpu_time_ms = 0.0
        #: Messages accepted but not yet dispatched (instantaneous queue).
        self.queue_depth = 0
        #: Instrumentation bus (rewired by Network.register / attach).
        self.obs = sim.obs

    @property
    def busy_until(self) -> float:
        """Simulated time at which the CPU's current backlog drains."""
        return self._busy_until

    # ------------------------------------------------------------------
    # Delivery path (called by the network)
    # ------------------------------------------------------------------
    def deliver(self, sender: str, message: Any) -> None:
        """Accept a message from the network and queue it for processing."""
        if self.crashed:
            return
        try:
            # A sealed envelope carries its verification count; ``None``
            # on a record that has not been counted yet.
            units = message._repro_memo[1]
        except AttributeError:
            units = None
        if units is None:
            counter = getattr(message, "signature_units", None)
            units = counter() if counter is not None else 1
        cost = self.cost_model
        service = cost.base_ms + cost.verify_ms * units
        self.cpu_time_ms += service
        now = self.sim.now
        start = self._busy_until
        if start < now:
            start = now
        self._busy_until = start + service
        self.queue_depth += 1
        obs = self.obs
        # Gated on the metrics tier: monitor-only runs see every
        # delivery, and none of these per-hop aggregates feed the
        # monitor's checkers.
        if obs.metrics:
            payload = getattr(message, "payload", message)
            queue_ms = start - now
            obs.observe("cpu.queue_ms", queue_ms)
            obs.observe("cpu.service_ms", service)
            obs.count_type("proc.handled", type(payload).__name__)
            if obs.recording:
                obs.emit(now, "proc.deliver", node=self.node_id,
                         msg=type(payload).__name__, sender=sender,
                         queue_ms=round(queue_ms, 6),
                         service_ms=round(service, 6),
                         depth=self.queue_depth)
        self.sim.post(self._busy_until, self._dispatch, (sender, message))

    def utilization(self, window_ms: float | None = None) -> float:
        """Fraction of (simulated) time this node's CPU was busy.

        ``window_ms`` defaults to the whole simulation so far.
        """
        window = window_ms if window_ms is not None else self.sim.now
        if window <= 0:
            return 0.0
        return min(1.0, self.cpu_time_ms / window)

    def _dispatch(self, sender: str, message: Any) -> None:
        if self.queue_depth:
            self.queue_depth -= 1
        if self.crashed:
            return
        self.messages_handled += 1
        self.on_message(sender, message)

    # ------------------------------------------------------------------
    # Subclass API
    # ------------------------------------------------------------------
    def on_message(self, sender: str, message: Any) -> None:
        """Handle a fully-received message. Subclasses must override."""
        raise NotImplementedError

    def occupy(self, duration_ms: float) -> None:
        """Charge extra CPU time (e.g. executing a batch) to this node."""
        self.cpu_time_ms += duration_ms
        start = self._busy_until
        if start < self.sim.now:
            start = self.sim.now
        self._busy_until = start + duration_ms

    def set_timer(self, delay_ms: float, fn, *args: Any) -> EventHandle:
        """Schedule a callback that is suppressed if the node crashes."""
        return self.sim.at(self.sim.now + delay_ms, self._fire, fn, args)

    def _fire(self, fn, args: tuple) -> None:
        if not self.crashed:
            fn(*args)

    def crash(self) -> None:
        """Fail-stop this process."""
        self.crashed = True

    def recover(self) -> None:
        """Bring a crashed process back (state is whatever it had)."""
        self.crashed = False
        self._busy_until = max(self._busy_until, self.sim.now)
