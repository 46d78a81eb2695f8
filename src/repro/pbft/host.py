"""Host node: the process that signs, sends, and dispatches for engines.

A :class:`HostNode` is a simulated process that one or more protocol
*engines* (PBFT replica, data-sync engine, migration engine, ...) attach
to. It owns the node's identity, Byzantine behaviour, and the signed send
path; inbound envelopes are verified once and dispatched to the
engine registered for the payload type.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.crypto.keys import KeyRegistry
from repro.messages.base import Signed, verify_signed
from repro.pbft.faults import Behavior, HonestBehavior
from repro.sim.events import Simulator
from repro.sim.network import Network
from repro.sim.process import CostModel, Process

__all__ = ["HostNode"]


class HostNode(Process):
    """A network node hosting protocol engines."""

    def __init__(self, sim: Simulator, network: Network, keys: KeyRegistry,
                 node_id: str, cost_model: CostModel | None = None,
                 behavior: Behavior | None = None) -> None:
        super().__init__(sim, node_id, cost_model)
        self.network = network
        self.keys = keys
        self.behavior = behavior or HonestBehavior()
        self._handlers: dict[type, Callable[[str, Any, Signed], None]] = {}
        self.invalid_messages = 0

    # ------------------------------------------------------------------
    # Runtime behaviour swap (chaos / recovery)
    # ------------------------------------------------------------------
    def set_behavior(self, behavior: Behavior | str) -> Behavior:
        """Swap this node's Byzantine behaviour at runtime.

        Accepts a :class:`Behavior` instance or a registered name
        (``"honest"``, ``"silent"``, ...). Takes effect on the next
        outbound message — in-flight envelopes are untouched, matching
        how link rules apply at send time. Returns the previous
        behaviour so callers can restore it (fault heal / recovery).
        """
        if isinstance(behavior, str):
            from repro.pbft.faults import make_behavior
            behavior = make_behavior(behavior)
        previous = self.behavior
        self.behavior = behavior
        return previous

    # ------------------------------------------------------------------
    # Engine registration
    # ------------------------------------------------------------------
    def register_handler(self, payload_type: type,
                         handler: Callable[[str, Any, Signed], None]) -> None:
        """Route inbound payloads of ``payload_type`` to ``handler``.

        The handler receives ``(sender, payload, envelope)``.
        """
        self._handlers[payload_type] = handler

    # ------------------------------------------------------------------
    # Outbound path (behaviour-mediated)
    # ------------------------------------------------------------------
    def send_signed(self, dst: str, payload: Any) -> None:
        """Sign ``payload`` (per this node's behaviour) and send it."""
        envelope = self.behavior.outbound(self.keys, self.node_id, dst, payload)
        if envelope is None:
            return
        self.occupy(self.cost_model.send_time(1))
        self.network.send(self.node_id, dst, envelope)

    def multicast_signed(self, dsts: Iterable[str], payload: Any,
                         include_self: bool = False) -> None:
        """Send ``payload`` to every id in ``dsts`` (skipping self unless
        ``include_self``, in which case self-delivery is immediate and
        loop-back-free). Signing is charged once, emission per destination."""
        if include_self:
            dsts = list(dsts)  # read twice below; may be a one-shot iterable
        targets = [d for d in dsts if d != self.node_id]
        wants_self = include_self and len(targets) < len(dsts)
        self.occupy(self.cost_model.send_time(len(targets)))
        if isinstance(self.behavior, HonestBehavior):
            # Honest nodes send identical envelopes: seal once, fan out,
            # and keep the same envelope for themselves.
            envelope = self.behavior.outbound(self.keys, self.node_id,
                                              "", payload)
            self.network.multicast(self.node_id, targets, envelope)
            if wants_self:
                self.deliver(self.node_id, envelope)
        else:
            for dst in targets:
                envelope = self.behavior.outbound(self.keys, self.node_id,
                                                  dst, payload)
                if envelope is None:
                    continue
                self.network.send(self.node_id, dst, envelope)
            if wants_self:
                self._self_deliver(payload)

    def forward(self, dst: str, envelope: Signed) -> None:
        """Relay an original signed envelope unchanged (e.g. re-sending a
        stored COMMIT in response to a RESPONSE-QUERY). The envelope keeps
        its original signer, so receivers verify it as usual."""
        if isinstance(self.behavior, HonestBehavior):
            self.network.send(self.node_id, dst, envelope)

    def _self_deliver(self, payload: Any) -> None:
        envelope = self.behavior.outbound(self.keys, self.node_id,
                                          self.node_id, payload)
        if envelope is None:
            return
        self.deliver(self.node_id, envelope)

    # ------------------------------------------------------------------
    # Inbound path
    # ------------------------------------------------------------------
    def refuse(self, sender: str, payload: Any) -> None:
        """Book one inbound message as invalid: its envelope failed
        verification, or an engine found its payload ill-shaped."""
        self.invalid_messages += 1
        self.obs.count("host.invalid_messages")
        self.obs.emit(self.sim.now, "host.invalid", node=self.node_id,
                      sender=sender, msg=type(payload).__name__)

    def on_message(self, sender: str, message: Any) -> None:
        """Verify the envelope and dispatch its payload to an engine."""
        if not isinstance(message, Signed):
            return
        if not verify_signed(self.keys, message):
            self.refuse(sender, message.payload)
            return
        payload = message.payload
        handler = self._handlers.get(type(payload))
        if handler is None:
            self.obs.count("host.unhandled_messages")
            return
        handler(message.sender, payload, message)
