"""Intra-zone endorsement rounds.

The reusable sub-protocol at the bottom level of Algorithms 1 and 2: the
zone primary pre-prepares a payload, nodes validate it (via a validator
registered per instance kind) and multicast a vote whose detached *share*
signs the payload digest; ``2f+1`` shares aggregate into a quorum
certificate (or a threshold signature). Per §IV.B.1, a PBFT-style prepare
round is inserted only when the zone itself assigns the ballot number
(``use_prepare=True``); otherwise nodes vote directly on the primary's
pre-prepare.

Completion is observed two ways:

- the node that *leads* an instance gets its ``on_cert`` callback with the
  aggregated certificate (it then sends the top-level message);
- any node can register a kind-level ``on_quorum`` callback, fired when it
  has itself collected a vote quorum (Algorithm 2's record-append, where
  every destination-zone node acts on the quorum, uses this).

An instance is kept whole while the unit it serves — a ballot, a record
append, a cross-zone decision — is in flight at this node. When the
engine that owns the unit says it completed here (:meth:`~
EndorsementManager.retire`) and the instance is settled, it shrinks to
what a late message can still ask of it: its digest and view, ``done``
and ``voted``, and the certificate built at quorum, which a re-lead
hands over (DESIGN.md §10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.crypto.certificates import QuorumCertificate
from repro.crypto.keys import Signature
from repro.crypto.threshold import combine_threshold
from repro.messages.base import Signed
from repro.messages.endorse import EndorsePrepare, EndorsePrePrepare, EndorseVote
from repro.pbft.host import HostNode
from repro.quorums import intra_zone_quorum

__all__ = ["EndorsementManager", "EndorsementInstance"]

#: Instances one zone member may hold open here ahead of their
#: pre-prepare. A vote overtakes its pre-prepare by a LAN jitter, so an
#: honest member has a few dozen at most (24 under the benchmark's load,
#: 28 in the chaos campaigns); at the allowance its older half goes.
_PARKED_PER_MEMBER = 256
#: Re-dispatches of one pre-prepare whose validator keeps answering
#: "retry" (10 ms apart) before it is dropped.
_MAX_RETRIES = 200

Validator = Callable[[str, Any, bytes], bool]
QuorumCallback = Callable[[str, Any, Any], None]
CertCallback = Callable[[Any], None]


@dataclass
class _Kind:
    validator: Validator | None = None
    on_quorum: QuorumCallback | None = None


@dataclass(slots=True)
class EndorsementInstance:
    """State of one endorsement instance on one node."""

    instance: str
    view: int = 0
    payload: Any = None
    endorse_digest: bytes | None = None
    use_prepare: bool = False
    leading: bool = False
    #: ``None`` (both tables) once the instance has been let go.
    prepare_senders: set[str] | None = field(default_factory=set)
    shares: dict[str, Signature] | None = field(default_factory=dict)
    voted: bool = False
    done: bool = False
    on_cert: CertCallback | None = None
    #: The certificate built as the quorum formed.
    cert: Any = None
    #: The unit this instance serves completed at this node.
    served: bool = False
    #: The member whose vote or prepare opened the instance ahead of any
    #: pre-prepare, while it still counts against that member's allowance.
    parked_by: str | None = None

    @property
    def opened(self) -> bool:
        """Pre-prepared here or led from here (a finished instance was,
        whatever it has let go of since)."""
        return self.payload is not None or self.done


class EndorsementManager:
    """Runs endorsement instances for one node of one zone."""

    def __init__(self, host: HostNode, zone_members: tuple[str, ...], f: int,
                 view_provider: Callable[[], int],
                 use_threshold: bool = False,
                 quorum: int | None = None) -> None:
        self.host = host
        self.members = tuple(zone_members)
        self.others = tuple(m for m in zone_members if m != host.node_id)
        self.f = f
        self.quorum = intra_zone_quorum(f) if quorum is None else quorum
        self._members_key = ",".join(self.members)
        self._group = frozenset(self.members)
        self.view_provider = view_provider
        self.use_threshold = use_threshold
        self._instances: dict[str, EndorsementInstance] = {}
        #: member -> how many instances it opened ahead of their
        #: pre-prepare are still unopened (``parked_by`` names it on each).
        self._parked = dict.fromkeys(self.members, 0)
        self._kinds: dict[str, _Kind] = {}
        self._retries: dict[str, int] = {}
        host.register_handler(EndorsePrePrepare, self._on_pre_prepare)
        host.register_handler(EndorsePrepare, self._on_prepare)
        host.register_handler(EndorseVote, self._on_vote)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def register_kind(self, prefix: str, validator: Validator | None = None,
                      on_quorum: QuorumCallback | None = None) -> None:
        """Configure validation / quorum callbacks for instances whose id
        starts with ``prefix + "/"`` (or equals ``prefix``).

        Calls merge: a later registration fills in only the callbacks it
        provides (the cross-cluster engine adds ``on_quorum`` hooks to
        kinds whose validators the sync engine owns).
        """
        kind = self._kinds.setdefault(prefix, _Kind())
        if validator is not None:
            kind.validator = validator
        if on_quorum is not None:
            kind.on_quorum = on_quorum

    def _kind_of(self, instance: str) -> _Kind | None:
        prefix = instance.split("/", 1)[0]
        return self._kinds.get(prefix)

    def _get(self, instance: str) -> EndorsementInstance:
        state = self._instances.get(instance)
        if state is None:
            state = EndorsementInstance(instance=instance)
            self._instances[instance] = state  # lint: allow[taint-flow] per-instance vote state from zone members; shares only bind at the 2f+1 quorum
        return state

    def primary(self) -> str:
        """Current primary of this zone (from the local view)."""
        return self.members[self.view_provider() % len(self.members)]

    def _opened_early(self, sender: str,
                      instance: str) -> EndorsementInstance:
        """The state a vote or prepare from zone member ``sender`` lands
        in. Nothing else about the message has been checked yet, so an
        instance nobody pre-prepared here is opened on the sender's
        allowance: at ``_PARKED_PER_MEMBER`` the older half of what the
        sender has parked goes first (``_instances`` keeps arrival
        order), so a faulty member naming instances that will never
        exist displaces only what it parked itself."""
        state = self._instances.get(instance)
        if state is None:
            if self._parked[sender] >= _PARKED_PER_MEMBER:
                parked = [name for name, held in self._instances.items()
                          if held.parked_by == sender]
                for name in parked[:_PARKED_PER_MEMBER // 2]:
                    del self._instances[name]
                self._parked[sender] -= _PARKED_PER_MEMBER // 2
            state = self._get(instance)
            state.parked_by = sender
            self._parked[sender] += 1
        return state

    def _unpark(self, state: EndorsementInstance) -> None:
        """A pre-prepare (or this node's own lead) opened the instance:
        if a member's vote or prepare had opened it first, it no longer
        counts against that member."""
        member = state.parked_by
        if member not in self._parked:
            return  # None, as for most
        self._parked[member] -= 1
        state.parked_by = None

    def has_instance(self, instance: str) -> bool:
        """Whether this node has seen the instance's pre-prepare or led it."""
        state = self._instances.get(instance)
        return state is not None and state.opened

    def retire(self, instance: str) -> None:
        """The unit ``instance`` serves completed at this node: let the
        instance go, now or as soon as it is settled."""
        state = self._instances.get(instance)
        if state is not None:
            state.served = True
            self._settle(state)

    def _settle(self, state: EndorsementInstance) -> None:
        """Let go of what no late message can ask a finished instance
        for (callers have seen ``state.served``).

        Finished: its unit was served, the quorum formed here, and this
        node cast its vote — or owes it only to a round without prepares,
        where a re-sent pre-prepare is all it takes to cast it (the leader
        of such a round never *votes*: its share went out with the
        pre-prepare). Further votes and prepares then change nothing, a
        re-sent pre-prepare is validated and answered from the digest, a
        re-lead hands ``cert`` over; the payload, the shares, the prepare
        senders and the leader's callback have no reader left.
        """
        if state.done and (state.voted or not state.use_prepare):
            state.payload = state.on_cert = None
            state.shares = state.prepare_senders = None

    def instance_state(self, instance: str) -> EndorsementInstance | None:
        """Inspect an instance's state."""
        return self._instances.get(instance)

    def _reset_for_digest(self, state: EndorsementInstance,
                          endorse_digest: bytes) -> None:
        """Drop vote state when an instance switches digests.

        A re-drive after a view change may propose the same instance
        with a different batch, and votes can arrive before the
        pre-prepare that names the digest they belong to. Shares and
        prepares collected for the old digest can never aggregate with
        the new one — combining them would produce (or crash on) an
        invalid certificate — so the instance restarts its count.
        """
        if state.endorse_digest is not None \
                and state.endorse_digest != endorse_digest:
            state.shares = {}
            state.prepare_senders = set()
            state.voted = False
            state.done = False
            state.cert = None
            # Any pending leader callback belongs to the superseded digest:
            # firing it with the new proposal's certificate would pair the
            # old payload with a certificate that doesn't cover it (e.g. a
            # StateTransfer shipping stale records under a valid cert).
            state.leading = False
            state.on_cert = None

    # ------------------------------------------------------------------
    # Leader side
    # ------------------------------------------------------------------
    def lead(self, instance: str, payload: Any, endorse_digest: bytes,
             use_prepare: bool, on_cert: CertCallback) -> None:
        """Start an endorsement instance as this zone's primary."""
        view = self.view_provider()
        state = self._get(instance)
        self._reset_for_digest(state, endorse_digest)
        self._unpark(state)
        state.view = view
        state.payload = payload
        state.endorse_digest = endorse_digest
        state.use_prepare = use_prepare
        state.leading = True
        state.on_cert = on_cert
        self.host.obs.count("endorse.led")
        if state.done:
            # A previous primary already drove this instance to quorum and
            # the votes reached us; hand the certificate over immediately
            # (happens when a new primary re-drives after a view change):
            # over every share banked since, or, once those were let go,
            # the one built as the quorum formed. ``on_cert`` may read the
            # payload back (``SyncEngine._send_promise``); then it goes again.
            on_cert(state.cert if state.shares is None
                    else self._build_cert(state))
            if state.served:
                self._settle(state)
            return
        self.host.obs.span_open(self.host.sim.now, "endorse", instance,
                                node=self.host.node_id, prepare=use_prepare)
        pre_prepare = EndorsePrePrepare(instance=instance, view=view,
                                        payload=payload,
                                        endorse_digest=endorse_digest,
                                        use_prepare=use_prepare,
                                        sender=self.host.node_id)
        self.host.multicast_signed(self.others, pre_prepare)
        # The primary's share is part of the quorum: send it to the zone
        # (so every node can assemble the certificate) and count it here.
        share = self.host.keys.sign(self.host.node_id, endorse_digest)
        vote = EndorseVote(instance=instance, view=view,
                           endorse_digest=endorse_digest, share=share,
                           sender=self.host.node_id)
        self.host.multicast_signed(self.others, vote)
        self._add_share(state, self.host.node_id, share)

    def relead(self, instance: str, use_prepare: bool,
               on_cert: CertCallback) -> bool:
        """Lead ``instance`` again over the payload and digest banked for
        it here (the old primary's pre-prepare, or this node's own earlier
        lead); ``False`` when nothing is banked. A new zone primary
        re-drives this way, and since banked quorum shares hand the
        certificate over at once, so is a lost top-level message re-sent.
        """
        state = self._instances.get(instance)
        if state is None or not state.opened:
            return False
        self.lead(instance, state.payload, state.endorse_digest, use_prepare,
                  on_cert)
        return True

    def watch(self, instance: str, timeout_ms: float) -> None:
        """Arm the primary-watch deadline of ``instance`` in this view."""
        self.host.set_timer(timeout_ms, self.primary_overdue, instance,
                            self.view_provider())

    def primary_overdue(self, instance: str, armed_in: int) -> None:
        """The primary-watch deadline. A non-primary expecting its primary
        to open ``instance`` arms a timer in view ``armed_in`` (its engine
        knows what voids the watch) and calls this when it fires: no
        quorum here by then — the pre-prepare never came, or the instance
        it opened can no longer reach one in this view — means that
        primary is suspected (:meth:`ViewChangeManager.suspect`).
        """
        state = self._instances.get(instance)
        if state is None or not state.done:
            self.host.replica.view_changes.suspect(armed_in)

    # ------------------------------------------------------------------
    # Node side
    # ------------------------------------------------------------------
    def _on_pre_prepare(self, sender: str, msg: EndorsePrePrepare,
                        envelope: Signed) -> None:
        if sender != self.primary():
            return
        # Claimed digest as observed by this receiver: an endorsement
        # primary sending different digests to different members never
        # collects a divergent certificate, so the conformance monitor
        # detects the equivocation here.
        self.host.obs.emit(self.host.sim.now, "endorse.preprepare",
                           node=self.host.node_id, sender=sender,
                           instance=msg.instance, view=msg.view,
                           digest=msg.endorse_digest.hex(),
                           members=self._members_key)
        state = self._instances.get(msg.instance)
        if state is not None and state.opened \
                and state.endorse_digest != msg.endorse_digest:
            # Same view (or older): equivocation, refuse to endorse both.
            # A *strictly newer* view may legitimately re-propose the
            # instance with a different body — the old primary crashed
            # before its assignment reached anyone else, and the new
            # primary rebuilt the batch from its own pending pool. If no
            # certificate exists locally the old digest was never chosen,
            # so adopt the re-proposal (PBFT new-view rule); the vote
            # state banked for the dead digest resets below.
            if state.done or msg.view <= state.view:
                return
        kind = self._kind_of(msg.instance)
        if kind is not None and kind.validator is not None:
            verdict = kind.validator(msg.instance, msg.payload,
                                     msg.endorse_digest)
            if verdict == "retry":
                # Validation depends on state that is still in flight (e.g.
                # the enclosing global commit hasn't executed locally yet):
                # re-dispatch shortly instead of dropping the pre-prepare.
                attempts = self._retries.pop(msg.instance, 0)
                if attempts < _MAX_RETRIES:
                    self._retries[msg.instance] = attempts + 1
                    self.host.set_timer(10.0, self._on_pre_prepare,
                                        sender, msg, envelope)
                return
            # Refused, endorsed or (above) given up on: no count is kept.
            self._retries.pop(msg.instance, None)
            if not verdict:
                return
        state = self._get(msg.instance)
        # Digest known only from early votes (payload still None): the
        # validated pre-prepare wins, and any shares banked against a
        # different digest restart from zero.
        self._reset_for_digest(state, msg.endorse_digest)
        self._unpark(state)
        state.view = msg.view  # lint: allow[taint-flow] pre-quorum endorsement vote state; adopted only via on_quorum after 2f+1 verified shares
        if state.shares is not None:  # else let go: re-sent to a finished instance
            state.payload = msg.payload  # lint: allow[taint-flow] pre-quorum endorsement vote state; validator-gated above when the kind registers one
        state.endorse_digest = msg.endorse_digest  # lint: allow[taint-flow] pre-quorum endorsement vote state; the claimed digest IS the ballot being voted on
        state.use_prepare = msg.use_prepare  # lint: allow[taint-flow] phase selector for this vote round only; no replicated state depends on it
        if msg.use_prepare:
            prepare = EndorsePrepare(instance=msg.instance, view=msg.view,
                                     endorse_digest=msg.endorse_digest,
                                     sender=self.host.node_id)
            self.host.multicast_signed(self.others, prepare)  # lint: allow[taint-flow] prepare vote echoes the claimed digest: voting is how endorsement binds it
            self._prepared_by(state, self.host.node_id)
        else:
            self._cast_vote(state)

    def _on_prepare(self, sender: str, msg: EndorsePrepare,
                    envelope: Signed) -> None:
        if sender not in self.members:
            return
        state = self._opened_early(sender, msg.instance)
        if state.endorse_digest is not None and state.endorse_digest != msg.endorse_digest:
            return
        self._prepared_by(state, sender)

    def _prepared_by(self, state: EndorsementInstance, sender: str) -> None:
        if state.prepare_senders is None:
            return  # let go: its vote is cast, or waits for no prepare
        state.prepare_senders.add(sender)
        if state.payload is None or not state.use_prepare:
            return
        # Pre-prepare sender (the primary) counts as prepared.
        voters = set(state.prepare_senders)
        voters.add(self.primary())
        if len(voters) >= self.quorum:
            self._cast_vote(state)

    def _cast_vote(self, state: EndorsementInstance) -> None:
        if state.voted or state.endorse_digest is None:
            return
        state.voted = True
        share = self.host.keys.sign(self.host.node_id, state.endorse_digest)  # lint: allow[taint-flow] a vote share deliberately signs the claimed digest (threshold endorsement primitive)
        vote = EndorseVote(instance=state.instance, view=state.view,
                           endorse_digest=state.endorse_digest, share=share,
                           sender=self.host.node_id)
        self.host.multicast_signed(self.others, vote)  # lint: allow[taint-flow] broadcasting this node's own vote share over the claimed digest
        self._add_share(state, self.host.node_id, share)
        if state.served:
            self._settle(state)

    def _on_vote(self, sender: str, msg: EndorseVote,
                 envelope: Signed) -> None:
        if sender not in self.members:
            return
        state = self._opened_early(sender, msg.instance)
        if state.endorse_digest is not None and state.endorse_digest != msg.endorse_digest:
            return
        if state.endorse_digest is None:
            # Vote arrived before the pre-prepare; remember the digest so
            # shares can still aggregate once the payload shows up.
            state.endorse_digest = msg.endorse_digest
        if not self.host.keys.verify(msg.share, msg.endorse_digest):
            return
        self._add_share(state, sender, msg.share)

    def _add_share(self, state: EndorsementInstance, sender: str,
                   share: Signature) -> None:
        if state.shares is None:
            return  # let go: the quorum formed, its certificate is kept
        state.shares[sender] = share
        if state.done or len(state.shares) < self.quorum:
            return
        if state.payload is None:
            return  # quorum of shares but no validated payload yet
        state.done = True
        # A member that lags its zone: the unit completed before this.
        served = state.served
        obs = self.host.obs
        obs.count("endorse.quorum")
        # Closes only on the node that opened (led) the instance;
        # span_close is a no-op everywhere else.
        obs.span_close(self.host.sim.now, "endorse", state.instance,
                       node=self.host.node_id,
                       shares=len(state.shares))
        cert = state.cert = self._build_cert(state)
        if state.leading and state.on_cert is not None:
            state.on_cert(cert)
        kind = self._kind_of(state.instance)
        if kind is not None and kind.on_quorum is not None:
            kind.on_quorum(state.instance, state.payload, cert)
        if served:
            self._settle(state)

    def _build_cert(self, state: EndorsementInstance):
        shares = list(state.shares.values())
        if self.use_threshold:
            return combine_threshold(self.host.keys, state.endorse_digest,
                                     shares, self._group, self.quorum)
        return QuorumCertificate.aggregate(state.endorse_digest, shares)
