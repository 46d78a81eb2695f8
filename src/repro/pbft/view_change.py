"""PBFT view change.

When a deadline armed in view ``v`` expires with the primary's work undone
(:meth:`ViewChangeManager.suspect`), a replica moves to view ``v+1`` and
multicasts VIEW-CHANGE carrying evidence of every batch it prepared above
its stable checkpoint; the evidence names each batch by digest. The new
primary assembles ``2f+1`` view-changes into NEW-VIEW, re-proposing
prepared batches (highest view wins per sequence) from its own slots —
fetching from the zone any it lacks — and filling gaps with no-op
batches, after which normal operation resumes in the new view.

Two standard refinements are included: the *weak certificate* rule (seeing
``f+1`` view-changes for higher views makes a replica join the earliest of
them, so one faulty timer cannot be required) and cascading timeouts (if
NEW-VIEW does not arrive in time for a view ``2f+1`` replicas asked for,
move to ``v+2``; a view fewer asked for is asked for again instead, so a
lone replica never climbs away from its zone).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.crypto.digest import digest
from repro.messages.base import Signed, sign_message, verify_signed
from repro.messages.pbft import (BatchFetch, BatchReply, NewView,
                                 PreparedProof, PrePrepare, ViewChange,
                                 proof_pre_prepare)
from repro.quorums import weak_quorum

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pbft.replica import PBFTReplica

__all__ = ["ViewChangeManager"]


def _inner(payload):
    """Unwrap namespaced envelopes (the two-level baseline wraps its
    top-level PBFT traffic in a ``GlobalMsg`` carrier with an ``inner``
    field); plain PBFT payloads pass through unchanged."""
    return getattr(payload, "inner", payload)


class ViewChangeManager:
    """Owns the view-change state machine for one replica."""

    def __init__(self, replica: "PBFTReplica") -> None:
        self.replica = replica
        self.host = replica.host
        self._vc_messages: dict[int, dict[str, Signed]] = {}
        self._timer = None
        self._new_view_done: set[int] = set()
        #: The NEW-VIEW this replica sent as primary of its latest view,
        #: and the members it has sent that NEW-VIEW to again.
        self._new_view: NewView | None = None
        self._new_view_resent: set[str] = set()
        self._consecutive_failures = 0
        #: Proven batches the NEW-VIEW this replica is to send waits for
        #: (digest by sequence), and those fetched so far, by digest.
        self._missing: dict[int, bytes] = {}
        self._fetched: dict[bytes, tuple[Signed, ...]] = {}

    def register(self) -> None:
        """Attach VIEW-CHANGE / NEW-VIEW / batch-fetch handlers to the
        host."""
        self.host.register_handler(ViewChange, self._on_view_change)
        self.host.register_handler(NewView, self._on_new_view)
        self.host.register_handler(BatchFetch, self._on_batch_fetch)
        self.host.register_handler(BatchReply, self._on_batch_reply)

    # ------------------------------------------------------------------
    # Initiation
    # ------------------------------------------------------------------
    def initiate(self, new_view: int) -> None:
        """Move to ``new_view`` and broadcast VIEW-CHANGE evidence."""
        replica = self.replica
        # Jump forward to the highest view any replica is already asking
        # for, so a node whose timer cascaded ahead is caught up quickly.
        seen = [v for v, msgs in self._vc_messages.items() if msgs]
        if seen:
            new_view = max(new_view, max(seen))
        if new_view <= replica.view and not replica.view_active:
            return
        if new_view <= replica.view:
            new_view = replica.view + 1
        replica.view = new_view
        replica.view_active = False
        proofs = tuple(self._proof_for(slot) for slot in replica.prepared_slots())
        vc = ViewChange(new_view=new_view,
                        last_stable_sequence=replica.low_water_mark,
                        prepared_proofs=proofs,
                        sender=self.host.node_id)
        self.host.multicast_signed(replica.others, vc)
        own = sign_message(self.host.keys, self.host.node_id, vc)
        self._record(self.host.node_id, vc, own)
        self._restart_timer(new_view)

    def _proof_for(self, slot) -> PreparedProof:
        prepares = tuple(slot.prepare_envelopes.values())[: 2 * self.replica.f]
        return PreparedProof(pre_prepare=proof_pre_prepare(slot.pre_prepare),
                             prepares=prepares)

    def _restart_timer(self, failed_view: int) -> None:
        if self._timer is not None:
            self._timer.cancel()
        # Exponential backoff (PBFT §4.5.2): consecutive failed view
        # changes wait longer, giving slower replicas time to join.
        timeout = (self.replica.config.view_change_timeout_ms
                   * (2 ** min(self._consecutive_failures, 6)))
        self._timer = self.host.set_timer(timeout, self._on_timeout, failed_view)

    def _on_timeout(self, failed_view: int) -> None:
        replica = self.replica
        if replica.view_active or replica.view > failed_view:
            return
        asked = self._vc_messages.get(failed_view, {})
        if len(asked) < replica.quorum:
            # Fewer than 2f+1 replicas asked for this view, so it was not
            # its primary that failed (Castro-Liskov escalate only a view
            # 2f+1 asked for): moving on alone would leave them further
            # behind. Say it again — a partition may have eaten it — and
            # keep waiting for them, or for the weak certificate.
            self.host.multicast_signed(
                replica.others, asked[self.host.node_id].payload)
            self._restart_timer(failed_view)
            return
        self._consecutive_failures += 1
        self.initiate(failed_view + 1)

    def suspect(self, armed_in: int) -> None:
        """A deadline this replica armed in view ``armed_in`` passed with
        the primary's work undone — a request timer, a primary watch, a
        phase deadline: start a view change — if that view is still the
        one in force. A deadline armed under an earlier primary judges
        nobody (the new primary re-drives what it inherited), and while a
        view change is under way its own timer escalates it."""
        replica = self.replica
        if replica.view_active and replica.view == armed_in:
            self.initiate(armed_in + 1)

    # ------------------------------------------------------------------
    # VIEW-CHANGE handling
    # ------------------------------------------------------------------
    def _on_view_change(self, sender: str, vc: ViewChange,
                        envelope: Signed) -> None:
        replica = self.replica
        if sender not in replica.group:
            return
        new_view = self._new_view
        if replica.view_active and new_view is not None \
                and vc.new_view == new_view.new_view == replica.view \
                and sender not in self._new_view_resent:
            # It asks for the view this replica leads: it missed the
            # NEW-VIEW (it was down or cut off), so send it again — once
            # per member and view, however often it asks.
            self._new_view_resent.add(sender)
            self.host.send_signed(sender, new_view)
        self._record(sender, vc, envelope)

    def _record(self, sender: str, vc: ViewChange, envelope: Signed) -> None:
        replica = self.replica
        bucket = self._vc_messages.setdefault(vc.new_view, {})  # lint: allow[taint-flow] view-change vote aggregation keyed by the claimed view; activation requires a verified 2f+1 proof
        bucket[sender] = envelope
        # Weak certificate: f+1 replicas want a higher view -> join the
        # smallest such view so a correct replica is never left behind —
        # also from a view change of its own that nobody else joined.
        higher = {v for v, msgs in self._vc_messages.items()
                  if v > replica.view and len(msgs) >= weak_quorum(replica.f)}
        if higher:
            self.initiate(min(higher))
            return
        self._maybe_emit_new_view(vc.new_view)

    def _maybe_emit_new_view(self, new_view: int) -> None:
        replica = self.replica
        if replica.primary_of(new_view) != self.host.node_id:
            return
        if new_view in self._new_view_done or new_view < replica.view:
            return
        bucket = self._vc_messages.get(new_view, {})
        if len(bucket) < replica.quorum:
            return
        view_changes = tuple(bucket.values())
        pre_prepares = self._build_pre_prepares(new_view, view_changes)
        if pre_prepares is None:
            return  # held until every proven batch is here
        self._new_view_done.add(new_view)
        self._fetched.clear()
        nv = self._new_view = NewView(new_view=new_view,
                                      view_changes=view_changes,
                                      pre_prepares=pre_prepares,
                                      sender=self.host.node_id)
        self._new_view_resent.clear()
        self.host.multicast_signed(replica.others, nv)
        self._activate(new_view, pre_prepares)

    def _build_pre_prepares(self, new_view: int,
                            view_changes: tuple[Signed, ...]
                            ) -> tuple[Signed, ...] | None:
        """The NEW-VIEW's re-proposals, or ``None`` while a proven batch is
        missing here: it is asked of the zone, once per sequence and
        digest, and a proven sequence is never re-proposed as a no-op."""
        replica = self.replica
        min_s = max(_inner(env.payload).last_stable_sequence
                    for env in view_changes)
        best: dict[int, PrePrepare] = {}
        for env in view_changes:
            for proof in _inner(env.payload).prepared_proofs:
                if not self._proof_valid(proof):
                    continue
                pp = _inner(proof.pre_prepare.payload)
                if pp.sequence <= min_s:
                    continue
                current = best.get(pp.sequence)
                if current is None or pp.view > current.view:
                    best[pp.sequence] = pp
        batches = {sequence: self._batch_for(sequence, pp.batch_digest)
                   for sequence, pp in best.items()}
        missing = {sequence: best[sequence].batch_digest
                   for sequence, batch in batches.items() if batch is None}
        if missing:
            for sequence, batch_digest in missing.items():
                if self._missing.get(sequence) != batch_digest:
                    self.host.multicast_signed(replica.others, BatchFetch(
                        sequence=sequence, batch_digest=batch_digest,
                        sender=self.host.node_id))
            self._missing = missing
            return None
        self._missing = {}
        max_s = max(best) if best else min_s
        pre_prepares = []
        for sequence in range(min_s + 1, max_s + 1):
            proven = best.get(sequence)
            pp = PrePrepare(view=new_view, sequence=sequence,
                            batch_digest=(digest(()) if proven is None
                                          else proven.batch_digest),
                            batch=batches.get(sequence, ()),
                            sender=self.host.node_id)
            pre_prepares.append(
                sign_message(self.host.keys, self.host.node_id, pp))
        return tuple(pre_prepares)

    def _batch_for(self, sequence: int,
                   batch_digest: bytes) -> tuple[Signed, ...] | None:
        """The batch proven at ``sequence`` under ``batch_digest``, from
        this replica's own slot or fetched; ``None`` if it is not here."""
        slot = self.replica.slots.get(sequence)
        if slot is not None and slot.pre_prepare is not None \
                and slot.batch_digest == batch_digest:
            return slot.batch
        return self._fetched.get(batch_digest)

    def _on_batch_fetch(self, sender: str, fetch: BatchFetch,
                        envelope: Signed) -> None:
        """The primary of the view this replica is in, or moving to, lacks
        a batch a proof names: send it from the slot that holds it."""
        replica = self.replica
        if sender != replica.primary_of(replica.view):
            return
        slot = replica.slots.get(fetch.sequence)
        if slot is None or slot.pre_prepare is None \
                or slot.batch_digest != fetch.batch_digest:
            return
        self.host.send_signed(sender, BatchReply(
            sequence=slot.sequence, batch_digest=slot.batch_digest,
            batch=slot.batch, sender=self.host.node_id))

    def _on_batch_reply(self, sender: str, reply: BatchReply,
                        envelope: Signed) -> None:
        """A fetched batch counts only if a NEW-VIEW here waits for it and
        it hashes to the proven digest, each request under its client's
        signature."""
        if self._missing.get(reply.sequence) != reply.batch_digest \
                or reply.batch_digest in self._fetched:
            return
        if digest(tuple(env.payload for env in reply.batch)) \
                != reply.batch_digest:
            return
        for req_env in reply.batch:
            if not verify_signed(self.host.keys, req_env):
                return
        self._fetched[reply.batch_digest] = reply.batch
        self._maybe_emit_new_view(self.replica.view)

    def _proof_valid(self, proof: PreparedProof) -> bool:
        replica = self.replica
        if proof.pre_prepare is None:
            return False
        if not verify_signed(self.host.keys, proof.pre_prepare):
            return False
        pp = _inner(proof.pre_prepare.payload)
        if pp.sender != replica.primary_of(pp.view):
            return False
        voters = {pp.sender}
        for env in proof.prepares:
            if not verify_signed(self.host.keys, env):
                continue
            prepare = _inner(env.payload)
            if (prepare.view == pp.view and prepare.sequence == pp.sequence
                    and prepare.batch_digest == pp.batch_digest
                    and prepare.sender in replica.group):
                voters.add(prepare.sender)
        return len(voters) >= replica.quorum

    # ------------------------------------------------------------------
    # NEW-VIEW handling
    # ------------------------------------------------------------------
    def _on_new_view(self, sender: str, nv: NewView, envelope: Signed) -> None:
        replica = self.replica
        if sender != replica.primary_of(nv.new_view):
            return
        if nv.new_view < replica.view:
            return
        if nv.new_view == replica.view and replica.view_active:
            return
        valid_vcs = {_inner(env.payload).sender for env in nv.view_changes
                     if verify_signed(self.host.keys, env)
                     and _inner(env.payload).new_view == nv.new_view
                     and _inner(env.payload).sender in replica.group}
        if len(valid_vcs) < replica.quorum:
            return
        self._activate(nv.new_view, nv.pre_prepares)

    def _activate(self, new_view: int, pre_prepares: tuple[Signed, ...]) -> None:
        replica = self.replica
        replica.view = new_view
        replica.view_active = True
        self._consecutive_failures = 0
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        max_seq = replica.low_water_mark
        for env in pre_prepares:
            pp = env.payload
            max_seq = max(max_seq, pp.sequence)
            replica.process_pre_prepare(pp.sender, pp, env)
        if replica.is_primary:
            replica.next_sequence = max(replica.next_sequence, max_seq)
            replica._maybe_propose(force=True)
        else:
            # Hand any still-pending requests to the new primary and keep
            # watching them in this view (the new primary may be faulty
            # too): a timer armed in an earlier view is replaced.
            for request_digest, request_env in list(replica.pending.items()):
                self.host.forward(replica.primary, request_env)
                replica._start_request_timer(request_digest)
        replica.replay_deferred()
        for view in [v for v in self._vc_messages if v <= new_view]:
            del self._vc_messages[view]
        for callback in replica.on_view_change:
            callback()
