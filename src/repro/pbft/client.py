"""Closed-loop clients: one signed request in flight, done on f+1 votes.

Clients execute in a closed loop (one outstanding request each, as in the
paper's evaluation). :class:`ClosedLoopClient` is that loop, written once
for every protocol of the evaluation: the in-flight record, the signed
send, the timer, the vote table and the single completion. A *launch*
supplies what differs — who is addressed first, who is addressed again
when the timer fires (and what else the timer does), which reply type
answers it — and the subclass's reply handler says what a vote's key and
evidence are and what a quorum means.

:class:`PBFTClient` is the loop against one PBFT group: if no reply
quorum arrives before the retransmission timeout, the client multicasts
the request to *all* replicas, which relay it to the primary and, if the
primary stays silent, eventually trigger a view change (paper §V-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.crypto.digest import canonical_bytes
from repro.crypto.keys import KeyRegistry
from repro.messages.base import Signed, sign_message, verify_signed
from repro.messages.client import ClientReply, ClientRequest
from repro.quorums import weak_quorum
from repro.sim.events import EventHandle, Simulator
from repro.sim.network import Network
from repro.sim.process import CostModel, Process

__all__ = ["ClosedLoopClient", "PBFTClient", "CompletedRequest", "InFlight"]


@dataclass(slots=True)
class CompletedRequest:
    """Record of one finished request (for metrics). Slotted: a run keeps
    every record it completes."""

    timestamp: int
    operation: tuple
    result: Any
    started_at: float
    completed_at: float
    is_global: bool = False
    labels: Mapping[str, str] = field(default_factory=dict)

    @property
    def latency_ms(self) -> float:
        """End-to-end latency in milliseconds."""
        return self.completed_at - self.started_at


@dataclass
class InFlight:
    """The one request a client has in flight, and all that is kept
    about it until it completes."""

    request: Any
    #: Whom a retransmission is multicast to.
    targets: tuple[str, ...]
    #: The reply type that answers it.
    answer: type
    #: When the client's caller asked — a read's transactional fallback
    #: inherits it, so the failed fast path is part of its latency.
    started_at: float
    #: Copied onto the :class:`CompletedRequest`.
    labels: Mapping[str, str]
    #: The one vote table: vote key -> voter -> evidence.
    votes: dict[Any, dict[str, Any]] = field(default_factory=dict)
    #: The one timer (retransmission, or a read's timeout).
    timer: EventHandle | None = None


class ClosedLoopClient(Process):
    """The request loop every client runs (see the module docstring)."""

    def __init__(self, sim: Simulator, network: Network, keys: KeyRegistry,
                 client_id: str, retransmit_ms: float,
                 cost_model: CostModel | None = None) -> None:
        super().__init__(sim, client_id, cost_model or CostModel(base_ms=0.0,
                                                                 verify_ms=0.0))
        self.network = network
        self.keys = keys
        self.retransmit_ms = retransmit_ms
        self.timestamp = 0
        self.completed: list[CompletedRequest] = []
        self.on_complete: Callable[[CompletedRequest], None] | None = None
        self._outstanding: InFlight | None = None

    def _request(self, kind: type, **fields: Any) -> Any:
        """This client's next request: a ``kind`` under a fresh timestamp."""
        self.timestamp += 1
        return kind(timestamp=self.timestamp, sender=self.node_id, **fields)

    def _launch(self, request: Any, first: tuple[str, ...],
                targets: tuple[str, ...], timeout_ms: float,
                on_timeout: Callable[[], None], answer: type = ClientReply,
                started_at: float | None = None,
                labels: Mapping[str, str] | None = None) -> None:
        """Put ``request`` in flight: send it to ``first``, then arm the
        timer. That order (every send, then the timer) fixes the heap
        tie-breaks of a launch, so it is part of the byte contract."""
        if self._outstanding is not None:
            self._retire()
        self._outstanding = InFlight(
            request, targets, answer,
            self.sim.now if started_at is None else started_at, labels or {})
        self._send(request, first)
        self._arm(timeout_ms, on_timeout)

    def _send(self, request: Any, dsts: tuple[str, ...]) -> None:
        """One seal and one fan-out, however many are addressed."""
        self.network.multicast(self.node_id, dsts,
                               sign_message(self.keys, self.node_id, request))

    def _arm(self, delay_ms: float, fn: Callable[[], None]) -> None:
        flight = self._outstanding
        if flight.timer is not None:
            flight.timer.cancel()
        flight.timer = self.set_timer(delay_ms, fn)

    def _on_retry(self) -> None:
        # Multicast to every target; non-primaries relay to their primary
        # and start suspecting it (§V-A).
        flight = self._outstanding
        self._send(flight.request, flight.targets)
        self._arm(self.retransmit_ms, self._on_retry)

    def _retire(self) -> InFlight:
        """Nothing is in flight any more (and its timer will not fire)."""
        flight, self._outstanding = self._outstanding, None
        flight.timer.cancel()
        return flight

    # ------------------------------------------------------------------
    # Replies
    # ------------------------------------------------------------------
    def _awaited(self, reply: Any) -> InFlight | None:
        """The in-flight record, if ``reply`` answers it."""
        flight = self._outstanding
        if flight is not None and type(reply) is flight.answer \
                and reply.timestamp == flight.request.timestamp:
            return flight
        return None

    def _vote(self, key: Any, voter: str, evidence: Any = None) -> dict:
        """Book ``voter``'s verified vote for ``key``. Returns the votes
        for ``key`` so far — or none at all for a replayed vote, which
        can therefore decide nothing a second time."""
        votes = self._outstanding.votes.setdefault(key, {})
        if voter in votes:
            return {}
        votes[voter] = evidence
        return votes

    def _complete(self, result: Any) -> None:
        """The single completion of every request of every client."""
        flight = self._retire()
        record = CompletedRequest(timestamp=flight.request.timestamp,
                                  operation=flight.request.operation,
                                  result=result,
                                  started_at=flight.started_at,
                                  completed_at=self.sim.now,
                                  is_global=self._settle(flight, result),
                                  labels=flight.labels)
        self.completed.append(record)
        if self.on_complete is not None:
            self.on_complete(record)

    def _settle(self, flight: InFlight, result: Any) -> bool:
        """What ``result`` changes for this client beyond the record (it
        moved, say); returns whether the request was a global one."""
        return False


class PBFTClient(ClosedLoopClient):
    """Closed-loop client of one PBFT group."""

    def __init__(self, sim: Simulator, network: Network, keys: KeyRegistry,
                 client_id: str, group: tuple[str, ...], f: int,
                 retransmit_ms: float = 2_000.0,
                 cost_model: CostModel | None = None) -> None:
        super().__init__(sim, network, keys, client_id, retransmit_ms,
                         cost_model)
        self.group = tuple(group)
        self.f = f
        #: f+1 matching replies guarantee one correct replica executed.
        self.reply_quorum = weak_quorum(f)
        self.view_hint = 0

    def primary_hint(self) -> str:
        """Best guess of the current primary, from reply view numbers."""
        return self.group[self.view_hint % len(self.group)]

    def submit(self, operation: tuple) -> None:
        """Send the next operation (closed loop: one at a time)."""
        self._launch(self._request(ClientRequest, operation=operation),
                     (self.primary_hint(),), self.group,
                     self.retransmit_ms, self._on_retry)

    def on_message(self, sender: str, message: Any) -> None:
        if isinstance(message, Signed) \
                and isinstance(message.payload, ClientReply) \
                and verify_signed(self.keys, message):
            self._on_reply(message.payload)

    def _on_reply(self, reply: ClientReply) -> None:
        self.view_hint = max(self.view_hint, reply.view)
        if self._awaited(reply) is not None and \
                len(self._vote(canonical_bytes(reply.result), reply.sender)) \
                >= self.reply_quorum:
            self._complete(reply.result)
