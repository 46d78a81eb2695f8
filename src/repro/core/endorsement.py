"""Intra-zone endorsement rounds.

The reusable sub-protocol at the bottom level of Algorithms 1 and 2: the
zone primary pre-prepares a payload, nodes validate it (via a validator
registered per instance kind) and send the primary a vote whose detached
*share* signs the payload digest. The primary counts its own share
without sending it; at ``2f+1`` shares it aggregates them into a quorum
certificate (or a threshold signature) once and sends that certificate to
the zone, which checks it in full. Per §IV.B.1, a PBFT-style prepare
round is inserted only when the zone itself assigns the ballot number
(``use_prepare=True``); otherwise nodes vote directly on the primary's
pre-prepare.

Completion is observed two ways:

- the node that *leads* an instance gets its ``on_cert`` callback with the
  aggregated certificate (it then sends the top-level message);
- any node can register a kind-level ``on_quorum`` callback, fired when a
  certificate it verified meets the payload it validated (Algorithm 2's
  record-append, where every destination-zone node acts on the quorum,
  uses this).

Only the leader collects shares, so what all-to-all votes gave every
member for free is given back on the paths that need it, none of them
taken without a fault: a member that voted answers a re-sent pre-prepare
with its share; on a local view change it re-sends its share for each
instance it voted on and has not seen finish to the new primary; and a
share cast in a later view than the instance finished in is answered
with the certificate (DESIGN.md §6.1).

An instance is kept whole while the unit it serves — a ballot, a record
append, a cross-zone decision — is in flight at this node. When the
engine that owns the unit says it completed here (:meth:`~
EndorsementManager.retire`) and the instance is settled, it shrinks to
what a late message can still ask of it: its digest and view, ``done``
and ``voted``, and its certificate, which a re-lead hands over
(DESIGN.md §10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.zone import ZoneInfo, group_cert_valid
from repro.crypto.certificates import CertificateVerifier, QuorumCertificate
from repro.crypto.keys import Signature
from repro.crypto.threshold import ThresholdVerifier, combine_threshold
from repro.messages.base import Signed
from repro.messages.endorse import (EndorsePrepare, EndorsePrePrepare,
                                    EndorseQuery, EndorseVote)
from repro.pbft.host import HostNode

__all__ = ["EndorsementManager", "EndorsementInstance"]

#: Instances one zone member may hold open here ahead of their
#: pre-prepare. A vote overtakes its pre-prepare by a LAN jitter, so an
#: honest member has a few dozen at most (24 under the benchmark's load,
#: 28 in the chaos campaigns); at the allowance its older half goes.
_PARKED_PER_MEMBER = 256

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
    #: ``None`` (both tables) once the instance has been let go. Shares
    #: are what members sent this node as their leader.
    prepare_senders: set[str] | None = field(default_factory=set)
    shares: dict[str, Signature] | None = field(default_factory=dict)
    #: This node's share went to the leader (or, leading, was counted).
    voted: bool = False
    done: bool = False
    on_cert: CertCallback | None = None
    #: The certificate: built here at quorum, or the leader's, verified;
    #: the latter is banked ahead of ``done`` until the payload validates.
    cert: Any = None
    #: The unit this instance serves completed at this node.
    served: bool = False
    #: The member whose message opened the instance ahead of any
    #: pre-prepare, while it still counts against that member's allowance.
    parked_by: str | None = None
    #: Members known to hold no certificate of it: they asked this node
    #: for one, or answered an ask of this node's without one (``watch``).
    lacking: set[str] | None = None
    #: The pre-prepare its validator answered "retry", held (on its
    #: sender's allowance) until :meth:`EndorsementManager.replay`.
    deferred: tuple | None = None

    @property
    def opened(self) -> bool:
        """Pre-prepared here or led from here (a finished instance was,
        whatever it has let go of since)."""
        return self.payload is not None or self.done


class EndorsementManager:
    """Runs endorsement instances for one node of one zone."""

    def __init__(self, host: HostNode, zone: ZoneInfo,
                 view_provider: Callable[[], int],
                 use_threshold: bool = False) -> None:
        self.host = host
        self.zone = zone
        self.others = tuple(m for m in zone.members if m != host.node_id)
        self._members_key = ",".join(zone.members)
        self.view_provider = view_provider
        self.use_threshold = use_threshold
        self._certificates = CertificateVerifier(host.keys)
        self._thresholds = ThresholdVerifier(host.keys)
        self._instances: dict[str, EndorsementInstance] = {}
        #: member -> how many instances it opened ahead of their
        #: pre-prepare are still unopened (``parked_by`` names it on each).
        self._parked = dict.fromkeys(zone.members, 0)
        self._kinds: dict[str, _Kind] = {}
        #: Instances this node asked its zone about (``watch``), by the
        #: view the watch judges.
        self._asked: dict[str, int] = {}
        #: The pending primary watch of each instance (``watch``): the
        #: instance's completion cancels it.
        self._watches: dict[str, Any] = {}
        host.register_handler(EndorsePrePrepare, self._on_pre_prepare)
        host.register_handler(EndorsePrepare, self._on_prepare)
        host.register_handler(EndorseVote, self._on_vote)
        host.register_handler(EndorseQuery, self._on_query)
        replica = getattr(host, "replica", None)  # none on a bare test host
        if replica is not None:
            replica.on_view_change.append(self._resend_shares)

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
        return self.zone.primary(self.view_provider())

    def _opened_early(self, sender: str,
                      instance: str) -> EndorsementInstance:
        """The state a vote, certificate or prepare from zone member
        ``sender`` lands in. Nothing else about the message has been
        checked yet, so an instance nobody pre-prepared here is opened on
        the sender's allowance: at ``_PARKED_PER_MEMBER`` the older half
        of what the sender has parked goes first (``_instances`` keeps
        arrival order), so a faulty member naming instances that will
        never exist displaces only what it parked itself."""
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
        """A pre-prepare (or this node's own lead, or its own ask) opened
        the instance: if a member's message had opened it first, it no
        longer counts against that member."""
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

        Finished: its unit was served, the certificate is here, and this
        node cast its vote — or owes it only to a round without prepares,
        where the pre-prepare is all it takes to cast it. (A node takes
        its part in a round even when the certificate came first, so that
        a round costs the same messages however they interleave.) A
        further share or certificate then changes nothing, a re-sent
        pre-prepare is validated and answered from the digest, a re-lead
        hands ``cert`` over; the payload, the shares, the prepare senders
        and the leader's callback have no reader left.
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
        pre-prepare that names the digest they belong to. Shares,
        prepares and a certificate banked for the old digest can never
        stand for the new one — combining them would produce (or crash
        on) an invalid certificate — so the instance restarts its count.
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
            # The instance already finished here — this node built the
            # certificate, or verified the one a previous primary sent
            # (a new primary re-driving after a view change, or a lost
            # top-level message re-sent): hand it over at once. ``on_cert``
            # may read the payload back (``SyncEngine._send_promise``);
            # then it goes again.
            on_cert(state.cert)
            if state.served:
                self._settle(state)
            return
        if state.cert is not None:
            # The previous primary's certificate came, its pre-prepare not.
            self._complete(state, state.cert)
            return
        self.host.obs.span_open(self.host.sim.now, "endorse", instance,
                                node=self.host.node_id, prepare=use_prepare)
        pre_prepare = EndorsePrePrepare(instance=instance, view=view,
                                        payload=payload,
                                        endorse_digest=endorse_digest,
                                        use_prepare=use_prepare,
                                        sender=self.host.node_id)
        self.host.multicast_signed(self.others, pre_prepare)
        # The primary's share is part of the quorum: counted here, sent
        # to nobody.
        state.voted = True
        self._add_share(state, self.host.node_id,
                        self.host.keys.sign(self.host.node_id, endorse_digest))

    def replay(self, instance: str) -> None:
        """What the validator of ``instance`` answered "retry" for is
        here (the owning engine says so): validate the held pre-prepare
        again, if one is held."""
        state = self._instances.get(instance)
        if state is not None and state.deferred is not None:
            held, state.deferred = state.deferred, None
            self._on_pre_prepare(*held)

    def relead(self, instance: str, use_prepare: bool,
               on_cert: CertCallback) -> bool:
        """Lead ``instance`` again over the payload and digest banked for
        it here (the old primary's pre-prepare, or this node's own earlier
        lead); ``False`` when nothing is banked. A new zone primary
        re-drives this way, and since a finished instance hands its
        certificate over at once, so is a lost top-level message re-sent.
        """
        state = self._instances.get(instance)
        if state is None or not state.opened:
            return False
        self.lead(instance, state.payload, state.endorse_digest, use_prepare,
                  on_cert)
        return True

    def watch(self, instance: str, timeout_ms: float, armed_in: int) -> None:
        """Arm the primary-watch deadline of ``instance`` in view
        ``armed_in`` (the caller's ``PBFTReplica.judged_view``): a backup
        expects its primary to finish the instance by then.

        When it fires on an instance opened here that has no certificate
        — it can no longer reach its quorum in that view, or the leader
        kept the certificate — the primary of that view is suspected
        (:meth:`ViewChangeManager.suspect`). When it fires on an instance
        this node never saw, the node may have been down while its zone
        finished it, so — as over a gap of its own (DESIGN.md §6.5) — it
        asks the zone once for the certificate. It suspects the primary
        once ``f`` members are known to hold none either, or if nothing
        certifies the instance here within another ``timeout_ms``.

        The instance's completion here disarms the watch (``_complete``);
        one on an instance already finished is not armed."""
        state = self._instances.get(instance)
        if state is not None and state.done:
            return
        self._watches[instance] = self.host.set_timer(
            timeout_ms, self._watch_expired, instance, timeout_ms, armed_in)

    def _watch_expired(self, instance: str, timeout_ms: float,
                       armed_in: int) -> None:
        self._watches.pop(instance, None)
        state = self._instances.get(instance)
        if state is not None and state.opened:
            if not state.done:
                self.host.replica.view_changes.suspect(armed_in)
            return
        if self.host.replica.judged_view != armed_in \
                or instance in self._asked:
            return  # it judges nobody any more, or an ask is out
        state = self._get(instance)
        if state.cert is not None:
            return  # an earlier ask fetched it
        self._unpark(state)  # this node's own now: no member can displace it
        self._asked[instance] = armed_in
        self.host.multicast_signed(self.others, EndorseQuery(
            instance=instance, view=armed_in, sender=self.host.node_id))
        self.host.set_timer(timeout_ms, self._asked_expired, instance)
        self._lacked_by(state, None)

    def _lacked_by(self, state: EndorsementInstance,
                   member: str | None) -> None:
        """Zone member ``member`` holds no certificate of ``state`` (with
        ``None``, only the count is checked). Once ``f`` members lack it
        (``f+1`` with this node) while this node asks for it, the primary
        that owes it is suspected."""
        if state.lacking is None:
            state.lacking = set()
        if member is not None:
            state.lacking.add(member)
        armed_in = self._asked.get(state.instance)
        if armed_in is not None and len(state.lacking) >= self.zone.f:
            del self._asked[state.instance]
            self.host.replica.view_changes.suspect(armed_in)

    def _asked_expired(self, instance: str) -> None:
        armed_in = self._asked.pop(instance, None)
        if armed_in is not None and self._instances[instance].cert is None:
            self.host.replica.view_changes.suspect(armed_in)

    def _on_query(self, sender: str, msg: EndorseQuery,
                  envelope: Signed) -> None:
        """A member asks for the certificate of an instance it never saw:
        answer with it, or say there is none here — and remember that the
        member holds none either."""
        kind = self._kind_of(msg.instance)
        if sender not in self.zone.member_set or kind is None:
            return  # not a member, or no kind this zone runs
        state = self._opened_early(sender, msg.instance)
        if state.cert is not None:
            self._send_cert(sender, state)
            return
        self._lacked_by(state, sender)
        self.host.send_signed(sender, EndorseVote(
            instance=msg.instance, view=msg.view, endorse_digest=b"",
            share=None, sender=self.host.node_id))

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
                # Validation waits on protocol state still on its way here
                # (Algorithm 2's: the ballot accepted or executed here):
                # held, and validated again when its owner says so.
                self._opened_early(sender, msg.instance).deferred = \
                    (sender, msg, envelope)
                return
            if not verdict:
                return
        state = self._get(msg.instance)
        # Digest known only from early messages (payload still None): the
        # validated pre-prepare wins, and whatever was banked against a
        # different digest restarts from zero.
        self._reset_for_digest(state, msg.endorse_digest)
        resent = state.opened
        self._unpark(state)
        state.view = msg.view  # lint: allow[taint-flow] pre-quorum endorsement vote state; adopted only via on_quorum once a verified 2f+1 certificate meets it
        if state.shares is not None:  # else let go: re-sent to a finished instance
            state.payload = msg.payload  # lint: allow[taint-flow] pre-quorum endorsement vote state; validator-gated above when the kind registers one
        state.endorse_digest = msg.endorse_digest  # lint: allow[taint-flow] pre-quorum endorsement vote state; the claimed digest IS the ballot being voted on
        state.use_prepare = msg.use_prepare  # lint: allow[taint-flow] phase selector for this vote round only; no replicated state depends on it
        if not state.done and state.cert is not None:
            # The leader's certificate came first; it meets its payload
            # now, and this node still takes its part in the round below.
            self._complete(state, state.cert)
        if resent and (state.voted or state.done):
            # Its sender asks again, so it holds no certificate: the share
            # this node sent went to a leader that crashed or lost it, or
            # to no one (it was the leader then).
            self._send_share(state)
            return
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
        if sender not in self.zone.member_set:
            return
        state = self._opened_early(sender, msg.instance)
        if state.endorse_digest is not None and state.endorse_digest != msg.endorse_digest:
            return
        self._prepared_by(state, sender)

    def _prepared_by(self, state: EndorsementInstance, sender: str) -> None:
        if state.prepare_senders is None:
            return  # let go: the instance finished here
        state.prepare_senders.add(sender)
        if state.payload is None or not state.use_prepare:
            return
        # Pre-prepare sender (the primary) counts as prepared.
        voters = set(state.prepare_senders)
        voters.add(self.primary())
        if len(voters) >= self.zone.quorum:
            self._cast_vote(state)

    def _cast_vote(self, state: EndorsementInstance) -> None:
        if state.voted or state.endorse_digest is None:
            return
        state.voted = True
        self._send_share(state)
        if state.served:
            self._settle(state)

    def _send_share(self, state: EndorsementInstance,
                    view: int | None = None) -> None:
        """This node's share of ``state``'s digest, cast in ``view`` (the
        instance's own by default), to the zone's primary — counted here
        when that is this node."""
        share = self.host.keys.sign(self.host.node_id, state.endorse_digest)  # lint: allow[taint-flow] a vote share deliberately signs the claimed digest (threshold endorsement primitive)
        leader = self.primary()
        if leader == self.host.node_id:
            self._add_share(state, leader, share)
            return
        vote = EndorseVote(instance=state.instance,
                           view=state.view if view is None else view,
                           endorse_digest=state.endorse_digest, share=share,
                           sender=self.host.node_id)
        self.host.send_signed(leader, vote)  # lint: allow[taint-flow] this node's own vote share over the claimed digest, to the zone primary only

    def _resend_shares(self) -> None:
        """A new view is active. The shares this node cast for instances
        that have not finished here went to the old primary, which may be
        what failed: send each, cast in the new view, to the new primary —
        which collects them, or answers with the certificate if the
        instance finished there — or count it here, on the new primary,
        where the others' arrive. A unit that completed here needs none."""
        view = self.view_provider()
        for state in list(self._instances.values()):
            if state.voted and not state.done and not state.served:
                self._send_share(state, view)

    def _on_vote(self, sender: str, msg: EndorseVote,
                 envelope: Signed) -> None:
        if sender not in self.zone.member_set:
            return
        if msg.share is None and msg.cert is None:
            # The answer to an ask of this node's (``_on_query``): that
            # member holds no certificate.
            if msg.instance not in self._asked:
                return
            self._lacked_by(self._instances[msg.instance], sender)
            return
        state = self._opened_early(sender, msg.instance)
        if state.endorse_digest is not None and state.endorse_digest != msg.endorse_digest:
            return
        if msg.cert is not None:
            self._on_cert(sender, state, msg)
            return
        if state.done and msg.view > state.view:
            # Cast after a view change the instance finished before: its
            # sender never got the certificate (a late vote of the round
            # itself is cast in the round's view, and gets nothing).
            self._send_cert(sender, state)
            return
        if state.endorse_digest is None:
            # Vote arrived before the pre-prepare; remember the digest so
            # shares can still aggregate once the payload shows up.
            state.endorse_digest = msg.endorse_digest
        if not self.host.keys.verify(msg.share, msg.endorse_digest):
            return
        self._add_share(state, sender, msg.share)

    def _send_cert(self, member: str, state: EndorsementInstance) -> None:
        """The certificate of finished ``state``, to zone member
        ``member``."""
        self.host.send_signed(member, EndorseVote(
            instance=state.instance, view=state.view,
            endorse_digest=state.endorse_digest, share=None,
            sender=self.host.node_id, cert=state.cert))

    def _on_cert(self, sender: str, state: EndorsementInstance,
                 msg: EndorseVote) -> None:
        """The leader's certificate: checked in full, then banked; it
        completes the instance once the payload is validated here."""
        if state.done:
            return
        zone = self.zone
        if not group_cert_valid(msg.cert, msg.endorse_digest,
                                zone.member_set, zone.quorum,
                                self._certificates, self._thresholds):
            self.host.refuse(sender, msg)
            return
        state.endorse_digest = msg.endorse_digest
        state.cert = msg.cert
        if state.payload is not None:
            self._complete(state, msg.cert)

    def _add_share(self, state: EndorsementInstance, sender: str,
                   share: Signature) -> None:
        if state.shares is None:
            return  # let go: the instance finished here
        state.shares[sender] = share
        if state.done or len(state.shares) < self.zone.quorum:
            return
        if state.payload is None:
            return  # quorum of shares but no validated payload yet
        cert = self._build_cert(state)
        # The certificate goes to the zone once, from where it was built.
        self.host.multicast_signed(
            self.others, EndorseVote(instance=state.instance, view=state.view,
                                     endorse_digest=state.endorse_digest,
                                     share=None, sender=self.host.node_id,
                                     cert=cert))
        self._complete(state, cert)

    def _complete(self, state: EndorsementInstance, cert: Any) -> None:
        """A certificate meets the validated payload: the instance is done
        here."""
        state.done = True
        state.cert = cert
        watch = self._watches.pop(state.instance, None)
        if watch is not None:
            watch.cancel()
        # A member that lags its zone: the unit completed before this.
        served = state.served
        obs = self.host.obs
        obs.count("endorse.quorum")
        # Closes only on the node that opened (led) the instance;
        # span_close is a no-op everywhere else.
        obs.span_close(self.host.sim.now, "endorse", state.instance,
                       node=self.host.node_id,
                       shares=len(state.shares))
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
                                     shares, self.zone.member_set,
                                     self.zone.quorum)
        return QuorumCertificate.aggregate(state.endorse_digest, shares)
