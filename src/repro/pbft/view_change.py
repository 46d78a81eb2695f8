"""PBFT view change.

When a deadline armed in view ``v`` expires with the primary's work undone
(:meth:`ViewChangeManager.suspect`), a replica moves to view ``v+1`` and
multicasts VIEW-CHANGE naming every batch it prepared above its stable
checkpoint. A prepared proof is a reference — view, sequence, batch
digest and the members whose prepares it holds, its own among them — and
carries no signature: a receiver matches it against the pre-prepare and
prepares it verified itself, and fetches the signed originals of what it
cannot match (``ProofFetch`` / ``ProofReply``).

The new primary assembles NEW-VIEW from ``2f+1`` view-changes whose every
proof it bore out — asking each sender for the originals of the proofs it
cannot match, and leaving out a view-change whose sender does not answer
— and re-proposes, by digest, the batch of the highest-view proof at
every sequence (a no-op batch where none is proven). It keeps the
originals, and a backup that cannot match a proof in NEW-VIEW fetches
them from it. A backup recomputes the re-proposals from the same
view-changes against its own log before it adopts them, each batch from
its own slot or from a fetch, and refuses a NEW-VIEW whose re-proposals
differ. Normal operation then resumes in the new view.

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
from repro.messages.base import Signed, redact, sign_message, verify_signed
from repro.messages.pbft import (NewView, PreparedProof, Prepare, PrePrepare,
                                 ProofFetch, ProofReply, ViewChange)
from repro.pbft.replica import inner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pbft.replica import PBFTReplica, Slot

__all__ = ["ViewChangeManager"]

#: What a prepared proof refers to: (view, sequence, batch digest).
Ref = tuple[int, int, bytes]


def _ref(proof: PreparedProof) -> Ref:
    return proof.view, proof.sequence, proof.batch_digest


def _stable(envelope: Signed) -> int:
    """The stable checkpoint a signed VIEW-CHANGE reports."""
    return inner(envelope.payload).last_stable_sequence


def _floor(view_changes: tuple[Signed, ...]) -> int:
    """The highest stable checkpoint among ``view_changes``: re-proposals
    start above it."""
    return max(_stable(env) for env in view_changes)


def _proofs_above(view_changes: tuple[Signed, ...], floor: int
                  ) -> list[PreparedProof]:
    return [proof for env in view_changes
            for proof in inner(env.payload).prepared_proofs
            if proof.sequence > floor]


def _highest(proofs: list[PreparedProof]) -> dict[int, PreparedProof]:
    """The highest-view proof at each sequence."""
    best: dict[int, PreparedProof] = {}
    for proof in proofs:
        current = best.get(proof.sequence)
        if current is None or proof.view > current.view:
            best[proof.sequence] = proof
    return best


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
        #: Verified originals behind references, by reference: the signed
        #: pre-prepare (its batch included) and the signed prepares by
        #: member. Fetched, or — by the primary of the new view — kept
        #: from its own slots, which its re-proposals overwrite, for the
        #: backups that check its NEW-VIEW.
        self._originals: dict[Ref, tuple[Signed, dict[str, Signed]]] = {}
        #: Fetches sent in this view change: per reference, the members
        #: asked and whether each has answered.
        self._asked: dict[Ref, dict[str, bool]] = {}
        #: Fetches answered in this view, as (member, reference): each at
        #: most once, so a member cannot make this replica sign and send
        #: without bound.
        self._served: set[tuple[str, Ref]] = set()
        #: A NEW-VIEW this backup checks once its fetches are answered.
        self._held: NewView | None = None

    def register(self) -> None:
        """Attach VIEW-CHANGE / NEW-VIEW / proof-fetch handlers to the
        host."""
        self.host.register_handler(ViewChange, self._on_view_change)
        self.host.register_handler(NewView, self._on_new_view)
        self.host.register_handler(ProofFetch, self._on_proof_fetch)
        self.host.register_handler(ProofReply, self._on_proof_reply)

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
        # What an earlier view change fetched, asked or answered judges
        # nothing in this one: a replica that leads again asks again.
        self._originals.clear()
        self._asked.clear()
        self._served.clear()
        self._held = None
        proofs = tuple(PreparedProof(view=slot.view, sequence=slot.sequence,
                                     batch_digest=slot.batch_digest,
                                     signers=tuple(sorted(
                                         replica.prepared_by(slot))))
                       for slot in replica.prepared_slots())
        vc = ViewChange(new_view=new_view,
                        last_stable_sequence=replica.low_water_mark,
                        prepared_proofs=proofs,
                        sender=self.host.node_id)
        self.host.multicast_signed(replica.others, vc)
        own = sign_message(self.host.keys, self.host.node_id, vc)
        self._record(self.host.node_id, vc, own)
        self._restart_timer(new_view)

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
                  if v > replica.view
                  and len(msgs) >= replica.profile.weak_quorum}
        if higher:
            self.initiate(min(higher))
            return
        self._maybe_emit_new_view(vc.new_view)

    def _maybe_emit_new_view(self, new_view: int) -> None:
        replica = self.replica
        me = self.host.node_id
        if replica.primary_of(new_view) != me:
            return
        if new_view in self._new_view_done or new_view < replica.view:
            return
        bucket = self._vc_messages.get(new_view, {})
        if len(bucket) < replica.quorum:
            return
        view_changes = self._choose(tuple(bucket.values()))
        if view_changes is None:
            return  # held for fetches, or for more view-changes
        self._new_view_done.add(new_view)
        min_s = _floor(view_changes)
        proofs = _proofs_above(view_changes, min_s)
        # Keep what bears the proofs out: the re-proposals below void
        # this replica's slots, and a backup that cannot match a proof
        # fetches its originals from here.
        for ref in dict.fromkeys(map(_ref, proofs)):
            self._originals[ref] = self._proof_envelopes(ref)
        proven = _highest(proofs)
        pre_prepares = []
        for sequence in range(min_s + 1, max(proven, default=min_s) + 1):
            proof = proven.get(sequence)
            batch = () if proof is None \
                else self._batch_for(sequence, proof.batch_digest)
            pre_prepares.append(sign_message(self.host.keys, me, PrePrepare(
                view=new_view, sequence=sequence,
                batch_digest=digest(()) if proof is None
                else proof.batch_digest,
                batch=batch, sender=me)))
        nv = self._new_view = NewView(
            new_view=new_view, view_changes=view_changes,
            pre_prepares=tuple(redact(env, batch=()) for env in pre_prepares),
            sender=me)
        self._new_view_resent.clear()
        self.host.multicast_signed(replica.others, nv)
        self._activate(new_view, tuple(pre_prepares))

    def _choose(self, view_changes: tuple[Signed, ...]
                ) -> tuple[Signed, ...] | None:
        """The ``view_changes`` — at least ``2f+1``, in their order —
        whose every proof above the highest stable checkpoint among them
        this replica bore out, or ``None`` while there are not that many.
        Asks each sender for the originals of its proofs this replica
        cannot match: a view-change whose sender does not answer is left
        out, never waited for."""
        quorum = self.replica.quorum
        for env in view_changes:
            vc = inner(env.payload)
            for proof in vc.prepared_proofs:
                if self._well_formed(proof) and not self._borne_out(proof):
                    self._ask(vc.sender, proof)
        for floor in sorted({_stable(env) for env in view_changes},
                            reverse=True):
            usable = [env for env in view_changes if _stable(env) <= floor
                      and all(self._well_formed(proof)
                              and self._borne_out(proof)
                              for proof in _proofs_above((env,), floor))]
            # One of them must be at ``floor``: it is the checkpoint the
            # re-proposals start from.
            if len(usable) >= quorum \
                    and any(_stable(env) == floor for env in usable):
                return tuple(usable)
        return None

    # ------------------------------------------------------------------
    # Prepared proofs by reference
    # ------------------------------------------------------------------
    def _well_formed(self, proof: PreparedProof) -> bool:
        """Whether ``proof`` names a quorum: the pre-prepare of its view's
        primary and the prepares of ``2f`` other zone members."""
        replica = self.replica
        signers = set(proof.signers)
        return len(signers) + 1 >= replica.quorum \
            and replica.primary_of(proof.view) not in signers \
            and signers <= set(replica.group)

    def _borne_out(self, proof: PreparedProof) -> bool:
        """Whether this replica verified the pre-prepare ``proof`` names
        and each of its signers' prepares — in its own slot or fetched."""
        return set(proof.signers) <= self._verified(_ref(proof))

    def _ask(self, member: str, proof: PreparedProof) -> None:
        """Ask ``member`` for the originals behind ``proof`` — once per
        member and view change."""
        me = self.host.node_id
        asked = self._asked.setdefault(_ref(proof), {})
        if member != me and member not in asked:
            asked[member] = False
            self.host.send_signed(member, ProofFetch(
                view=proof.view, sequence=proof.sequence,
                batch_digest=proof.batch_digest, sender=me))

    def _verified(self, ref: Ref) -> set[str]:
        """Members whose prepare for ``ref`` this replica has verified,
        with its pre-prepare; empty without the pre-prepare."""
        voters: set[str] = set()
        slot = self._slot_for(ref)
        if slot is not None:
            voters |= self.replica.prepared_by(slot)
        originals = self._originals.get(ref)
        if originals is not None:
            voters |= originals[1].keys()
        return voters

    def _slot_for(self, ref: Ref) -> "Slot | None":
        """This replica's slot if it holds ``ref``'s pre-prepare."""
        view, sequence, batch_digest = ref
        slot = self.replica.slots.get(sequence)
        if slot is not None and slot.pre_prepare is not None \
                and (slot.view, slot.batch_digest) == (view, batch_digest):
            return slot
        return None

    def _proof_envelopes(self, ref: Ref
                         ) -> tuple[Signed, dict[str, Signed]] | None:
        """The signed pre-prepare and prepares by member this replica
        verified for ``ref`` — its own prepare signed again (the
        signature is deterministic, so it is the one it sent) — or
        ``None`` without the pre-prepare."""
        pre_prepare, prepares = self._originals.get(ref, (None, {}))
        prepares = dict(prepares)
        slot = self._slot_for(ref)
        if slot is not None:
            pre_prepare = slot.pre_prepare
            me = self.host.node_id
            for member in self.replica.prepared_by(slot):
                prepares[member] = slot.prepare_envelopes[member] \
                    if member != me else sign_message(
                        self.host.keys, me, Prepare(
                            view=slot.view, sequence=slot.sequence,
                            batch_digest=slot.batch_digest, sender=me))
        return None if pre_prepare is None else (pre_prepare, prepares)

    def _batch_for(self, sequence: int,
                   batch_digest: bytes) -> tuple[Signed, ...]:
        """The batch proven at ``sequence`` under ``batch_digest``: from
        this replica's own slot, or from a pre-prepare it fetched or kept
        (a proof is borne out only with its pre-prepare)."""
        slot = self.replica.slots.get(sequence)
        if slot is not None and slot.pre_prepare is not None \
                and slot.batch_digest == batch_digest:
            return slot.batch
        for (_, kept_sequence, kept_digest), (pre_prepare, _) \
                in self._originals.items():
            if (kept_sequence, kept_digest) == (sequence, batch_digest):
                return inner(pre_prepare.payload).batch
        raise AssertionError("a proven batch without its pre-prepare")

    def _on_proof_fetch(self, sender: str, fetch: ProofFetch,
                        envelope: Signed) -> None:
        """A zone member could not match a reference: send it the signed
        pre-prepare and prepares this replica holds for it — once per
        member, reference and view."""
        if sender not in self.replica.others:
            return
        ref = (fetch.view, fetch.sequence, fetch.batch_digest)
        if (sender, ref) in self._served:
            return
        originals = self._proof_envelopes(ref)
        if originals is None:
            return
        self._served.add((sender, ref))
        pre_prepare, prepares = originals
        self.host.send_signed(sender, ProofReply(
            sequence=fetch.sequence, batch_digest=fetch.batch_digest,
            pre_prepare=pre_prepare,
            prepares=tuple(prepares[member] for member in sorted(prepares)),
            sender=self.host.node_id))

    def recheck(self) -> None:
        """The stable checkpoint rose: a NEW-VIEW held for fetches needs
        none below it (the zone may have pruned those slots, so the
        answers may never come)."""
        if self._held is not None:
            self._check_new_view(self._held)

    def _on_proof_reply(self, sender: str, reply: ProofReply,
                        envelope: Signed) -> None:
        """An answer to a fetch this replica sent: whatever it holds
        counts only once verified — the pre-prepare under its primary's
        signature, its batch hashing to the digest under each client's,
        each prepare under its sender's."""
        replica = self.replica
        pre_prepare = inner(reply.pre_prepare.payload)
        if type(pre_prepare) is not PrePrepare:
            return
        ref = (pre_prepare.view, pre_prepare.sequence,
               pre_prepare.batch_digest)
        asked = self._asked.get(ref, {})
        if asked.get(sender) is not False:
            return
        asked[sender] = True
        if not replica.pre_prepare_valid(reply.pre_prepare):
            return
        _, prepares = self._originals.get(ref, (None, {}))
        for env in reply.prepares:
            prepare = inner(env.payload)
            if type(prepare) is Prepare and prepare.sender in replica.group \
                    and (prepare.view, prepare.sequence,
                         prepare.batch_digest) == ref \
                    and verify_signed(self.host.keys, env):
                prepares[prepare.sender] = env
        self._originals[ref] = (reply.pre_prepare, prepares)
        if self._held is not None:
            self._check_new_view(self._held)
        else:
            self._maybe_emit_new_view(replica.view)

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
        self._check_new_view(nv)

    def _check_new_view(self, nv: NewView) -> None:
        """Adopt ``nv`` if 2f+1 valid view-changes back it, every proof in
        them is borne out and its re-proposals are the ones they prove.
        A proof this replica cannot match it fetches from the new
        primary, which bore each one out before it sent ``nv``, and holds
        ``nv`` meanwhile."""
        replica = self.replica
        keys = self.host.keys
        view_changes = tuple(
            env for env in nv.view_changes
            if verify_signed(keys, env)
            and inner(env.payload).new_view == nv.new_view
            and inner(env.payload).sender in replica.group)
        self._held = None
        if len({inner(env.payload).sender for env in view_changes}) \
                < replica.quorum:
            return
        min_s = _floor(view_changes)
        # Below its own stable checkpoint this replica adopts nothing, so
        # it has nothing there to check either.
        floor = max(min_s, replica.low_water_mark)
        proofs = _proofs_above(view_changes, floor)
        if not all(self._well_formed(proof) for proof in proofs):
            return
        primary = replica.primary_of(nv.new_view)
        for proof in proofs:
            if not self._borne_out(proof):
                self._ask(primary, proof)
                self._held = nv
        if self._held is not None:
            return
        pre_prepares = self._recomputed(nv, min_s, floor, _highest(proofs))
        if pre_prepares is not None:
            self._activate(nv.new_view, pre_prepares)

    def _recomputed(self, nv: NewView, min_s: int, floor: int,
                    proven: dict[int, PreparedProof]
                    ) -> tuple[Signed, ...] | None:
        """``nv``'s re-proposals with their batches, or ``None`` unless
        they are exactly what its view-changes prove: one per sequence
        from ``min_s + 1`` on, none missing or doubled, each proven
        sequence with its proven digest and every other one a no-op."""
        keys = self.host.keys
        primary = self.replica.primary_of(nv.new_view)
        by_sequence: dict[int, Signed] = {}
        for env in nv.pre_prepares:
            pp = env.payload
            if type(pp) is not PrePrepare or pp.view != nv.new_view \
                    or pp.sender != primary or pp.batch \
                    or pp.sequence in by_sequence \
                    or not verify_signed(keys, env):
                return None
            by_sequence[pp.sequence] = env
        top = max(by_sequence, default=min_s)
        if sorted(by_sequence) != list(range(min_s + 1, top + 1)) \
                or max(proven, default=min_s) > top:
            return None
        adopted = []
        for sequence in range(floor + 1, top + 1):
            env = by_sequence[sequence]
            proof = proven.get(sequence)
            if proof is None:
                if env.payload.batch_digest != digest(()):
                    return None
                adopted.append(env)
            elif env.payload.batch_digest != proof.batch_digest:
                return None
            else:
                adopted.append(redact(env, batch=self._batch_for(
                    sequence, proof.batch_digest)))
        return tuple(adopted)

    def _activate(self, new_view: int, pre_prepares: tuple[Signed, ...]) -> None:
        replica = self.replica
        replica.view = new_view
        replica.view_active = True
        self._consecutive_failures = 0
        # This view change asks nothing more; the originals stay, for the
        # backups that fetch from its primary.
        self._asked.clear()
        self._held = None
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        max_seq = replica.low_water_mark
        for env in pre_prepares:
            pp = env.payload
            max_seq = max(max_seq, pp.sequence)
            replica.process_pre_prepare(pp.sender, pp, env)
        if replica.is_primary:
            # Never below what this replica executed: a sequence it
            # executed is not assigned again, proven or not.
            replica.next_sequence = max(replica.next_sequence, max_seq,
                                        replica.last_executed)
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
