"""Cross-zone transactions (paper §IV.B.3).

Ziziphus's zonal abstraction extends to transactions that touch data in
*different* zones — e.g. a money transfer between clients hosted by two
zones. Per the paper: the initiator zone acts as the primary (no election
phase), messages flow only to the *involved* zones, and because zones
hold different data each involved zone orders the transaction in its own
local log.

The implementation is an atomic-commitment protocol over BFT zones:

1. The initiator zone endorses an XZ-PROPOSE naming the involved zones
   and the operation bundle, and sends it to every involved zone.
2. Each involved zone orders an internal *prepare* operation through its
   own local PBFT (so it serialises deterministically against local
   transactions): the paying zone places a **hold** on the funds, which
   deterministically succeeds or fails. The zone endorses the outcome
   and answers XZ-ACCEPTED.
3. When *all* involved zones accepted (every holder of data must — this
   is not the majority quorum of the meta-data protocol), the initiator
   endorses the decision and broadcasts XZ-COMMIT (or XZ-ABORT if any
   zone reported failure); each zone orders the matching *finalize*
   operation locally (credit the payee / release the hold), and the
   initiator zone's nodes reply to the client.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.app.base import INTERNAL_SENDER_PREFIX, is_escrow
from repro.crypto.digest import digest
from repro.messages.base import Signed, sign_message, verify_signed
from repro.messages.client import ClientRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import ZiziphusNode

__all__ = ["CrossZoneEngine", "CrossZoneRequest"]

# ----------------------------------------------------------------------
# Wire messages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CrossZoneRequest:
    """Client request for a transaction spanning several zones.

    ``steps`` maps each involved zone to the operation it must apply,
    e.g. ``{"z0": ("xz-debit", "alice", 30), "z1": ("xz-credit", "bob",
    30)}``. The zone of ``prepare_zone`` runs its step at *prepare* time
    (the outcome decides commit vs abort); the others at finalize time.
    """

    steps: dict[str, tuple] = field(compare=False,
                                    metadata={"digest": False})
    steps_digest: bytes = b""
    prepare_zone: str = ""
    timestamp: int = 0
    sender: str = ""

    @property
    def operation(self) -> tuple:
        """Client-visible label (completed-request records)."""
        return ("cross-zone", self.prepare_zone)


@dataclass(frozen=True)
class XZPropose:
    """Initiator zone -> involved zones: ordered cross-zone proposal."""

    xid: str
    request: Signed
    cert: Any
    sender: str


@dataclass(frozen=True)
class XZAccepted:
    """Involved zone -> initiator zone: prepare outcome, endorsed."""

    xid: str
    zone_id: str
    ok: bool
    reason: str
    cert: Any
    sender: str


@dataclass(frozen=True)
class XZDecision:
    """Initiator zone -> involved zones: endorsed commit/abort."""

    xid: str
    commit: bool
    reason: str
    request: Signed
    cert: Any
    sender: str


def propose_body(xid: str, request_digest: bytes) -> bytes:
    """Digest certified by the initiator zone for XZ-PROPOSE."""
    return digest(("xz-propose", xid, request_digest))


def accepted_body(xid: str, zone_id: str, ok: bool, reason: str) -> bytes:
    """Digest certified by an involved zone for XZ-ACCEPTED."""
    return digest(("xz-accepted", xid, zone_id, ok, reason))


def decision_body(xid: str, commit: bool, request_digest: bytes) -> bytes:
    """Digest certified by the initiator zone for XZ-COMMIT/ABORT."""
    return digest(("xz-decision", xid, commit, request_digest))


#: Initiator timeout waiting for all involved zones to accept.
_ACCEPT_TIMEOUT_MS = 6_000.0


@dataclass
class _XZState:
    request_env: Signed
    xid: str = ""
    role: str = ""                    # "initiator" | "participant"
    accepted: dict[str, XZAccepted] = field(default_factory=dict)
    prepared_ok: bool | None = None
    prepare_reason: str = ""
    decided: bool = False
    finalized: bool = False
    timer: Any = None


class CrossZoneEngine:
    """Runs cross-zone transactions for one node."""

    def __init__(self, node: "ZiziphusNode") -> None:
        self.node = node
        self.directory = node.directory
        self.my_zone = node.zone_info
        self._next_seq = 0
        self._txns: dict[str, _XZState] = {}
        #: (client, request timestamp) -> xid: a retransmitted request
        #: must not open a second transaction.
        self._xid_of: dict[tuple[str, int], str] = {}
        self._by_internal: dict[str, tuple[str, str]] = {}  # sender -> (xid, stage)
        self.committed = 0
        self.aborted = 0

        node.register_handler(CrossZoneRequest, self._on_client_request)
        node.register_handler(XZPropose, self._on_propose)
        node.register_handler(XZAccepted, self._on_accepted)
        node.register_handler(XZDecision, self._on_decision)
        node.endorsement.register_kind("xz-propose",
                                       validator=self._validate_propose_ctx)
        node.endorsement.register_kind("xz-accepted",
                                       validator=self._validate_accepted_ctx)
        node.endorsement.register_kind("xz-decision",
                                       validator=self._validate_decision_ctx)

    # ------------------------------------------------------------------
    # Context payloads for the endorsement rounds
    # ------------------------------------------------------------------
    def _txn(self, xid: str, request_env: Signed,
             request: CrossZoneRequest) -> _XZState:
        state = self._txns.get(xid)
        if state is None:
            state = _XZState(request_env=request_env, xid=xid)
            self._txns[xid] = state
            self._xid_of.setdefault((request.sender, request.timestamp), xid)
        return state

    @staticmethod
    def _request_ok(request: CrossZoneRequest) -> bool:
        if digest(request.steps) != request.steps_digest:
            return False
        return request.prepare_zone in request.steps

    # ------------------------------------------------------------------
    # Initiator side
    # ------------------------------------------------------------------
    def _on_client_request(self, sender: str, request: CrossZoneRequest,
                           envelope: Signed) -> None:
        if self.my_zone.zone_id not in request.steps:
            return
        if not self._request_ok(request):
            return
        if not self.node.replica.is_primary:
            self.node.forward(self.node.replica.primary, envelope)
            return
        if (request.sender, request.timestamp) in self._xid_of:
            return  # retransmission of a request already being handled
        self._next_seq += 1
        xid = f"{self.my_zone.zone_id}:{self._next_seq}"
        state = self._txn(xid, envelope, request)
        state.role = "initiator"
        body = propose_body(xid, digest(request))
        context = ("xz-propose-ctx", xid, envelope)
        self.node.endorsement.lead(
            f"xz-propose/{xid}", context, body, use_prepare=True,
            on_cert=lambda cert, s=state: self._on_propose_certified(s, cert))

    def _validate_propose_ctx(self, instance: str, context: Any,
                              endorse_digest: bytes) -> bool:
        if not isinstance(context, tuple) or context[0] != "xz-propose-ctx":
            return False
        _, xid, envelope = context
        if not verify_signed(self.node.keys, envelope):
            return False
        request = envelope.payload
        if not isinstance(request, CrossZoneRequest):
            return False
        if not self._request_ok(request):
            return False
        return endorse_digest == propose_body(xid, digest(request))

    def _send_propose(self, state: _XZState, zones: list[str],
                      cert: Any) -> None:
        """Ship the certified XZ-PROPOSE to every node of ``zones``."""
        propose = XZPropose(xid=state.xid, request=state.request_env,
                            cert=cert, sender=self.node.node_id)
        self.node.multicast_signed(self.directory.nodes_of_zones(zones),
                                   propose)

    def _on_propose_certified(self, state: _XZState, cert: Any) -> None:
        request = state.request_env.payload
        self._send_propose(state, [z for z in request.steps
                                   if z != self.my_zone.zone_id], cert)
        # The initiator zone is usually involved too: run its prepare.
        self._run_prepare(state)
        state.timer = self.node.set_timer(_ACCEPT_TIMEOUT_MS,
                                          self._on_accept_timeout, state.xid)

    def _on_accepted(self, sender: str, accepted: XZAccepted,
                     envelope: Signed) -> None:
        state = self._txns.get(accepted.xid)
        if state is None or state.role != "initiator":
            return
        body = accepted_body(accepted.xid, accepted.zone_id, accepted.ok,
                             accepted.reason)
        if not self.node.check_cert("xz-accepted", accepted.zone_id,
                                    accepted.cert, body, sender,
                                    accepted.xid):
            return
        state.accepted[accepted.zone_id] = accepted
        self._maybe_decide(state)

    def _maybe_decide(self, state: _XZState) -> None:
        if state.decided or not self.node.replica.is_primary:
            return
        request = state.request_env.payload
        involved = set(request.steps)
        answered = set(state.accepted)
        if self.my_zone.zone_id in involved:
            if state.prepared_ok is None:
                return
            answered.add(self.my_zone.zone_id)
        if answered != involved:
            return
        state.decided = True
        if state.timer is not None:
            state.timer.cancel()
        commit, reason = True, "ok"
        for answer in state.accepted.values():
            if not answer.ok:
                commit, reason = False, answer.reason
        if self.my_zone.zone_id in involved and state.prepared_ok is False:
            commit, reason = False, state.prepare_reason
        body = decision_body(state.xid, commit, digest(request))
        context = ("xz-decision-ctx", state.xid, commit, reason,
                   state.request_env, tuple(state.accepted.values()))
        self.node.endorsement.lead(
            f"xz-decision/{state.xid}", context, body, use_prepare=False,
            on_cert=lambda cert, x=state.xid, c=commit, r=reason:
            self._send_decision(x, c, r, cert))

    def _validate_decision_ctx(self, instance: str, context: Any,
                               endorse_digest: bytes) -> bool:
        if not isinstance(context, tuple) or context[0] != "xz-decision-ctx":
            return False
        _, xid, commit, reason, envelope, accepteds = context
        request = envelope.payload
        if not isinstance(request, CrossZoneRequest):
            return False
        # Check the initiator primary really holds every involved zone's
        # endorsed answer (other than our own zone's local prepare).
        for accepted in accepteds:
            body = accepted_body(accepted.xid, accepted.zone_id, accepted.ok,
                                 accepted.reason)
            if not self.directory.cert_valid(accepted.cert, body,
                                             accepted.zone_id):
                return False
        involved = set(request.steps) - {self.my_zone.zone_id}
        if {a.zone_id for a in accepteds} != involved:
            return False
        return endorse_digest == decision_body(xid, commit, digest(request))

    def _send_decision(self, xid: str, commit: bool, reason: str,
                       cert: Any) -> None:
        state = self._txns[xid]
        decision = XZDecision(xid=xid, commit=commit, reason=reason,
                              request=state.request_env, cert=cert,
                              sender=self.node.node_id)
        involved = self.directory.nodes_of_zones(
            state.request_env.payload.steps)
        self.node.multicast_signed(involved, decision, include_self=True)

    def _on_accept_timeout(self, xid: str) -> None:
        state = self._txns.get(xid)
        if state is None or state.decided:
            return
        # Re-send the proposal to the zones that have not answered.
        request = state.request_env.payload
        missing = [z for z in request.steps
                   if z != self.my_zone.zone_id and z not in state.accepted]
        if not missing or not self.node.replica.is_primary:
            return
        # The certificate is re-built from the shares banked when the
        # proposal was first endorsed.
        if self.node.endorsement.relead(
                f"xz-propose/{xid}", use_prepare=True,
                on_cert=lambda cert: self._send_propose(state, missing,
                                                        cert)):
            state.timer = self.node.set_timer(_ACCEPT_TIMEOUT_MS,
                                              self._on_accept_timeout, xid)

    # ------------------------------------------------------------------
    # Participant side
    # ------------------------------------------------------------------
    def _on_propose(self, sender: str, propose: XZPropose,
                    envelope: Signed) -> None:
        request = propose.request.payload
        if not isinstance(request, CrossZoneRequest):
            return
        if self.my_zone.zone_id not in request.steps:
            return
        if not verify_signed(self.node.keys, propose.request):
            return
        if not self._request_ok(request):
            return
        initiator_zone = propose.xid.split(":", 1)[0]
        body = propose_body(propose.xid, digest(request))
        if not self.node.check_cert("xz-propose", initiator_zone,
                                    propose.cert, body, sender, propose.xid):
            return
        state = self._txn(propose.xid, propose.request, request)
        if state.role == "":
            state.role = "participant"
        if not self.node.replica.is_primary:
            return
        self._run_prepare(state)

    def _run_prepare(self, state: _XZState) -> None:
        """Order this zone's prepare step through the local PBFT log.

        The prepare zone applies its step (escrowing funds); every other
        involved zone orders a read-only *check* of its step (e.g. "does
        the payee's account exist here?") so a doomed transaction aborts
        before any money moves.
        """
        if state.prepared_ok is not None:
            return
        request = state.request_env.payload
        if self.my_zone.zone_id not in request.steps:
            self._record_prepare_outcome(state, True, "not-involved")
            return
        step = request.steps[self.my_zone.zone_id]
        if self.my_zone.zone_id == request.prepare_zone:
            operation = self._as_internal(step, state.xid, request.sender)
        else:
            operation = ("xz-check", step, state.xid)
        self._submit_internal(state.xid, "prepare", operation)

    @staticmethod
    def _as_internal(step: tuple, xid: str, client_id: str) -> tuple:
        """Escrow operations carry the transaction id; replicated plain
        operations (§V-B zone replication) are wrapped in ``xz-apply`` so
        the application executes them under the *real* client identity."""
        if step and is_escrow(step[0]):
            return step + (xid,)
        return ("xz-apply", client_id, step)

    def _submit_internal(self, xid: str, stage: str, operation: tuple) -> None:
        """Inject a zone-internal operation into the local PBFT stream."""
        internal_sender = f"{INTERNAL_SENDER_PREFIX}{xid}:{stage}"
        self._by_internal[internal_sender] = (xid, stage)
        request = ClientRequest(operation=operation, timestamp=1,
                                sender=internal_sender)
        # Signed under the internal identity so zone backups can verify
        # the batch entry like any other request.
        envelope = sign_message(self.node.keys, internal_sender, request)
        self.node.replica.submit_request(envelope)

    def on_internal_result(self, request_env: Signed, result: Any) -> None:
        """Called by the replica when an internal operation executes."""
        mapping = self._by_internal.get(request_env.payload.sender)
        if mapping is None:
            return
        xid, stage = mapping
        state = self._txns.get(xid)
        if state is None:
            return
        if stage == "prepare" and self.node.replica.is_primary:
            ok = isinstance(result, tuple) and result and result[0] == "ok"
            reason = "ok" if ok else (result[1] if len(result) > 1 else "err")
            self._record_prepare_outcome(state, ok, reason)

    def _record_prepare_outcome(self, state: _XZState, ok: bool,
                                reason: str) -> None:
        if state.prepared_ok is not None:
            return
        state.prepared_ok = ok
        state.prepare_reason = reason
        if state.role == "initiator":
            self._maybe_decide(state)
            return
        body = accepted_body(state.xid, self.my_zone.zone_id, ok, reason)
        context = ("xz-accepted-ctx", state.xid, self.my_zone.zone_id,
                   ok, reason, state.request_env)
        self.node.endorsement.lead(
            f"xz-accepted/{state.xid}.{self.my_zone.zone_id}", context, body,
            use_prepare=False,
            on_cert=lambda cert, s=state, o=ok, r=reason:
            self._send_accepted(s, o, r, cert))

    def _validate_accepted_ctx(self, instance: str, context: Any,
                               endorse_digest: bytes) -> bool:
        if not isinstance(context, tuple) or context[0] != "xz-accepted-ctx":
            return False
        _, xid, zone_id, ok, reason, envelope = context
        if zone_id != self.my_zone.zone_id:
            return False
        return endorse_digest == accepted_body(xid, zone_id, ok, reason)

    def _send_accepted(self, state: _XZState, ok: bool, reason: str,
                       cert: Any) -> None:
        initiator_zone = state.xid.split(":", 1)[0]
        accepted = XZAccepted(xid=state.xid, zone_id=self.my_zone.zone_id,
                              ok=ok, reason=reason, cert=cert,
                              sender=self.node.node_id)
        targets = self.directory.zone(initiator_zone).members
        self.node.multicast_signed(targets, accepted)

    # ------------------------------------------------------------------
    # Finalize (every node of every involved zone)
    # ------------------------------------------------------------------
    def _on_decision(self, sender: str, decision: XZDecision,
                     envelope: Signed) -> None:
        request = decision.request.payload
        if not isinstance(request, CrossZoneRequest):
            return
        if self.my_zone.zone_id not in request.steps:
            return
        initiator_zone = decision.xid.split(":", 1)[0]
        body = decision_body(decision.xid, decision.commit, digest(request))
        if not self.node.check_cert("xz-decision", initiator_zone,
                                    decision.cert, body, sender,
                                    decision.xid):
            return
        state = self._txn(decision.xid, decision.request, request)
        if state.finalized:
            return
        state.finalized = True
        # The decision executes here: its endorsement rounds are served.
        for instance in (f"xz-propose/{decision.xid}",
                         f"xz-accepted/{decision.xid}.{self.my_zone.zone_id}",
                         f"xz-decision/{decision.xid}"):
            self.node.endorsement.retire(instance)
        if decision.commit:
            self.committed += 1
        else:
            self.aborted += 1
        if self.node.replica.is_primary:
            self._finalize_locally(state, request, decision.commit)
        if self.my_zone.zone_id == initiator_zone:
            self.node.reply_to_client(
                request, ("ok", "committed") if decision.commit
                else ("err", decision.reason))

    def _finalize_locally(self, state: _XZState, request: CrossZoneRequest,
                          commit: bool) -> None:
        """Order this zone's finalize step through the local PBFT log."""
        zone_id = self.my_zone.zone_id
        step = request.steps[zone_id]
        escrowed = step and is_escrow(step[0])
        if zone_id == request.prepare_zone:
            if escrowed:
                opcode = "xz-finalize" if commit else "xz-release"
                self._submit_internal(state.xid, "finalize",
                                      (opcode, state.xid))
            # Plain replicated operations were already applied at prepare
            # time on this zone; nothing to finalize (commit) and nothing
            # to undo on abort (the prepare itself reported the failure
            # without mutating state — app operations fail atomically).
        elif commit:
            self._submit_internal(state.xid, "finalize",
                                  self._as_internal(step, state.xid,
                                                    request.sender))
