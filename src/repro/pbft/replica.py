"""PBFT replica state machine (normal case).

Implements Castro-Liskov PBFT over the simulated network: request
batching, pre-prepare/prepare/commit, in-order execution with per-client
exactly-once semantics, checkpoint-based garbage collection (see
:mod:`repro.pbft.checkpointing`), and view changes on primary failure (see
:mod:`repro.pbft.view_change`).

Ziziphus uses one replica group per zone for local transactions; the flat
PBFT baseline uses a single group spanning all regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.consensus.profile import QuorumProfile
from repro.crypto.digest import digest
from repro.errors import ConfigurationError
from repro.messages.base import Signed, sign_message, verify_signed
from repro.messages.client import ClientReply, ClientRequest
from repro.messages.pbft import Commit, GapReply, Prepare, PrePrepare
from repro.messages.trace import trace_id
from repro.pbft.checkpointing import CheckpointManager
from repro.pbft.host import HostNode
from repro.quorums import intra_zone_quorum

__all__ = ["PBFTConfig", "PBFTReplica", "Slot", "inner"]


@dataclass
class PBFTConfig:
    """Tunables for one PBFT group."""

    batch_size: int = 8
    batch_timeout_ms: float = 2.0
    request_timeout_ms: float = 600.0
    view_change_timeout_ms: float = 1200.0
    checkpoint_period: int = 128
    water_mark_window: int = 1024


def inner(payload: Any) -> Any:
    """Unwrap namespaced envelopes (the two-level baseline wraps its
    top-level PBFT traffic in a ``GlobalMsg`` carrier with an ``inner``
    field); plain PBFT payloads pass through unchanged."""
    return getattr(payload, "inner", payload)


@dataclass
class Slot:
    """Per-sequence consensus state. A vote counts only if a member cast
    it for the slot's view and batch (ROADMAP D15)."""

    sequence: int
    view: int
    pre_prepare: Signed | None = None
    batch_digest: bytes | None = None
    batch: tuple[Signed, ...] = ()
    #: Other members' prepares, by member.
    prepare_envelopes: dict[str, Signed] = field(default_factory=dict)
    #: The batch digest each member's commit names, its own included.
    commits: dict[str, bytes] = field(default_factory=dict)
    sent_prepare: bool = False
    sent_commit: bool = False
    committed: bool = False
    executed: bool = False

    def propose(self, view: int, pre_prepare: Signed, batch_digest: bytes,
                batch: tuple[Signed, ...]) -> None:
        """Take ``pre_prepare`` as this slot's proposal in ``view``; only
        votes for it stay."""
        if (view, batch_digest) != (self.view, self.batch_digest):
            self.sent_prepare = self.sent_commit = self.committed = False
        if view != self.view:
            self.prepare_envelopes.clear()
            self.commits.clear()
        self.view = view
        self.pre_prepare = pre_prepare
        self.batch_digest = batch_digest
        self.batch = batch
        self.prepare_envelopes = {
            m: env for m, env in self.prepare_envelopes.items()
            if inner(env.payload).batch_digest == batch_digest}
        self.commits = {m: voted for m, voted in self.commits.items()
                        if voted == batch_digest}


class PBFTReplica:
    """One replica of a PBFT group, attached to a :class:`HostNode`.

    Args:
        host: the node this replica runs on.
        group: ordered ids of all replicas in the group (defines primary
            rotation: primary of view ``v`` is ``group[v % len(group)]``).
        profile: the group's sizing: ``f``, the certificate quorum, the
            weak quorum and the least group size (a zone's is its
            ``ZoneInfo.profile``).
        app: the replicated state machine.
        config: protocol tunables.
        reply_fn: optional override for delivering execution results
            (default: send a :class:`ClientReply` to the request's sender).
        accept_request: optional predicate vetoing requests (Ziziphus uses
            it to reject transactions from clients whose lock is FALSE).
    """

    def __init__(self, host: HostNode, group: tuple[str, ...],
                 profile: QuorumProfile, app: Any,
                 config: PBFTConfig | None = None,
                 reply_fn: Callable[[Signed, Any], None] | None = None,
                 accept_request: Callable[[ClientRequest], bool] | None = None,
                 ) -> None:
        if len(group) < profile.group_size:
            raise ConfigurationError(
                f"{profile.name} needs >= {profile.group_size} replicas "
                f"(got {len(group)} for f={profile.f})"
            )
        self.host = host
        self.group = tuple(group)
        self.others = tuple(n for n in group if n != host.node_id)
        self.profile = profile
        self.f = profile.f
        #: Stable consensus-instance key for conformance-monitor events
        #: (a node may host several replicas, e.g. local + global PBFT).
        self._group_key = ",".join(self.group)
        self.app = app
        self.config = config or PBFTConfig()
        self.reply_fn = reply_fn
        self.accept_request = accept_request

        self.view = 0
        self.view_active = True
        self.next_sequence = 0           # last assigned (primary)
        self.last_executed = 0
        self.slots: dict[int, Slot] = {}
        self.pending: dict[bytes, Signed] = {}   # digest -> signed request
        self.client_table: dict[str, tuple[int, Any]] = {}
        #: Request digest -> (view the timer judges, its handle).
        self.request_timers: dict[bytes, tuple[int, Any]] = {}
        self._digest_sequence: dict[bytes, int] = {}
        self._batch_timer = None
        self._future: list[tuple[str, Any, Signed]] = []
        #: ``(view, last_executed, time)`` at which a request timer first
        #: found its request blocked by a gap (``_on_request_timeout``).
        self._gap_since: tuple[int, int, float] | None = None
        #: Per sequence of a gap, the batch digest each member reported
        #: executing there (``_on_gap_reply``).
        self._gap_reports: dict[int, dict[str, bytes]] = {}
        #: Per zone member, the view and sequence up to which this replica
        #: has answered its gap asks (``_serve_gap``).
        self._gap_served: dict[str, tuple[int, int]] = {}
        #: Callbacks invoked after a new view activates (Ziziphus re-drives
        #: in-flight global transactions from here).
        self.on_view_change: list[Callable[[], None]] = []
        self.executed_batches = 0
        self.executed_requests = 0
        #: Optional post-execution hook ``(sequence) -> None``; the read
        #: engine refreshes its watermark share from here.
        self.on_executed: Callable[[int], None] | None = None

        self.checkpoints = CheckpointManager(self)
        # Imported here to avoid a circular import at module load time.
        from repro.pbft.view_change import ViewChangeManager
        self.view_changes = ViewChangeManager(self)

        host.register_handler(ClientRequest, self._on_client_request)
        host.register_handler(PrePrepare, self.process_pre_prepare)
        host.register_handler(Prepare, self._on_prepare)
        host.register_handler(Commit, self._on_commit)
        host.register_handler(GapReply, self._on_gap_reply)
        self.checkpoints.register()
        self.view_changes.register()

    # ------------------------------------------------------------------
    # Roles and quorums
    # ------------------------------------------------------------------
    def primary_of(self, view: int) -> str:
        """Replica id acting as primary in ``view``."""
        return self.group[view % len(self.group)]

    @property
    def primary(self) -> str:
        """Current primary."""
        return self.primary_of(self.view)

    @property
    def is_primary(self) -> bool:
        """Whether this replica is the current primary."""
        return self.primary == self.host.node_id

    @property
    def judged_view(self) -> int:
        """The view a deadline armed now judges the primary of
        (``ViewChangeManager.suspect``): the current one while it is
        active; during a view change there is no primary to judge (-1)."""
        return self.view if self.view_active else -1

    @property
    def quorum(self) -> int:
        """Certificate quorum (``2f+1`` under PBFT sizing)."""
        return self.profile.certificate_quorum

    @property
    def low_water_mark(self) -> int:
        """Sequences at or below this are checkpointed and discarded."""
        return self.checkpoints.stable_sequence

    @property
    def high_water_mark(self) -> int:
        """Maximum sequence the primary may currently assign."""
        return self.low_water_mark + self.config.water_mark_window

    def _slot(self, sequence: int) -> Slot:
        slot = self.slots.get(sequence)
        if slot is None:
            slot = Slot(sequence=sequence, view=self.view)
            self.slots[sequence] = slot
        return slot

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    @staticmethod
    def _span_key(view: int, sequence: int) -> str:
        return f"v{view}.s{sequence}"

    def _causal_tag(self) -> str:
        """Group-unique qualifier for causal links and span fields.

        The ``v{view}.s{sequence}`` span key recurs in every PBFT group
        (one per zone, plus e.g. the two-level global group), so causal
        links qualify it with the group's lexicographically first
        member — a value every replica of the group derives
        identically, with no wire traffic.
        """
        return min((self.host.node_id, *self.others))

    # ------------------------------------------------------------------
    # Client requests and batching
    # ------------------------------------------------------------------
    def _on_client_request(self, sender: str, request: ClientRequest,
                           envelope: Signed) -> None:
        self.submit_request(envelope)

    def submit_request(self, envelope: Signed) -> None:
        """Accept a signed client request (from the client or a relay)."""
        request = envelope.payload
        last = self.client_table.get(request.sender)
        if last is not None and request.timestamp <= last[0]:
            # Already executed: re-send the cached reply (at-most-once).
            if request.timestamp == last[0]:
                self._send_reply(envelope, last[1])
            return
        if self.accept_request is not None and not self.accept_request(request):
            self._send_reply(envelope, ("rejected", "locked"))
            return
        request_digest = digest(request)
        if request_digest in self.pending or request_digest in self._digest_sequence:
            # Duplicate (e.g. a client retransmission): re-arm the liveness
            # timer so a stalled primary is eventually suspected.
            self._start_request_timer(request_digest)
            return
        self.pending[request_digest] = envelope
        self._start_request_timer(request_digest)
        if self.is_primary and self.view_active:
            self._maybe_propose()
        elif self.view_active:
            # Relay the original client-signed envelope to the primary
            # (re-signing would break the sender/signature binding); our
            # timer guards the primary's liveness.
            self.host.forward(self.primary, envelope)

    def _start_request_timer(self, request_digest: bytes) -> None:
        """Guard ``request_digest`` with a timer judging the view in force
        (``judged_view``); one armed in a view this replica has left judges
        no primary it still has, so it is replaced."""
        held = self.request_timers.get(request_digest)
        armed_in = self.judged_view
        if held is not None:
            if held[0] == armed_in:
                return
            held[1].cancel()
        timer = self.host.set_timer(self.config.request_timeout_ms,
                                    self._on_request_timeout, request_digest,
                                    armed_in)
        self.request_timers[request_digest] = (armed_in, timer)

    def _cancel_request_timer(self, request_digest: bytes) -> None:
        held = self.request_timers.pop(request_digest, None)
        if held is not None:
            held[1].cancel()

    def _on_request_timeout(self, request_digest: bytes,
                            armed_in: int) -> None:
        """A request timer armed in view ``armed_in`` fired. It judges that
        view's primary only (``ViewChangeManager.suspect``): once this
        replica has left it, escalating is the view-change timer's job,
        and the new view re-arms what is still outstanding."""
        self.request_timers.pop(request_digest, None)
        if armed_in != self.judged_view:
            return
        if request_digest in self.pending:
            # Never pre-prepared here: the primary dropped it — or ordered
            # it in a gap this replica missed, if one is open above.
            sequence = self.last_executed + 1
        else:
            sequence = self._digest_sequence.get(request_digest)
            if sequence is None:
                return
            slot = self.slots.get(sequence)
            if slot is None or slot.executed:
                return
        if not any(held.committed for held_at, held in self.slots.items()
                   if held_at >= sequence):
            self.view_changes.suspect(armed_in)
            return
        # It or a slot above it committed, so 2f+1 went on past a gap here:
        # one this replica missed, or one the primary left. Suspecting at
        # once would, in the first case, take it out of the view alone, so
        # ask the zone for the gap (a snapshot, or ``_serve_gap``'s replies)
        # and suspect one request timeout later if nothing executed.
        now = self.host.sim.now
        since = self._gap_since
        if since is None or since[:2] != (self.view, self.last_executed):
            self._gap_since = (self.view, self.last_executed, now)
            self.checkpoints.request_snapshot(self.last_executed + 1)
        elif now - since[2] >= self.config.request_timeout_ms:
            self.view_changes.suspect(armed_in)
            return
        self._start_request_timer(request_digest)

    def _maybe_propose(self, force: bool = False) -> None:
        if not self.pending or not self.view_active or not self.is_primary:
            return
        full_batch = len(self.pending) >= self.config.batch_size
        if not full_batch and not force:
            if self._batch_timer is None:
                self._batch_timer = self.host.set_timer(
                    self.config.batch_timeout_ms, self._on_batch_timeout)
            return
        if self._batch_timer is not None:
            self._batch_timer.cancel()
            self._batch_timer = None
        while self.pending:
            if self.next_sequence + 1 > self.high_water_mark:
                return  # wait for a checkpoint to advance the window
            digests = list(self.pending)[: self.config.batch_size]
            batch = tuple(self.pending.pop(d) for d in digests)
            self.next_sequence += 1
            self._send_pre_prepare(self.next_sequence, batch)
            if len(self.pending) < self.config.batch_size and not force:
                break

    def _on_batch_timeout(self) -> None:
        self._batch_timer = None
        self._maybe_propose(force=True)

    def _send_pre_prepare(self, sequence: int, batch: tuple[Signed, ...]) -> None:
        batch_digest = digest(tuple(env.payload for env in batch))
        pre_prepare = PrePrepare(view=self.view, sequence=sequence,
                                 batch_digest=batch_digest, batch=batch,
                                 sender=self.host.node_id)
        slot = self._slot(sequence)
        slot.propose(self.view, sign_message(self.host.keys,
                                             self.host.node_id, pre_prepare),
                     batch_digest, batch)
        for env in batch:
            self._digest_sequence[digest(env.payload)] = sequence
        obs = self.host.obs
        # The ``grp`` span field only exists on causal runs, so
        # causal-off traces stay byte-identical to older exports.
        extra = {"grp": self._causal_tag()} if obs.causal else {}
        obs.span_open(self.host.sim.now, "pbft",
                      self._span_key(self.view, sequence),
                      node=self.host.node_id, batch=len(batch),
                      role="primary", **extra)
        if obs.causal:
            # Bind this consensus instance to the trace ids of the
            # requests it orders; repro.obs.causal joins the pbft
            # spans (every replica, same key and group) through it.
            obs.emit(self.host.sim.now, "trace.link",
                     node=self.host.node_id, scope="pbft",
                     key=f"{extra['grp']}/"
                         f"{self._span_key(self.view, sequence)}",
                     traces=[trace_id(env.payload) for env in batch])
        self.host.multicast_signed(self.others, pre_prepare)
        self._check_prepared(slot)

    # ------------------------------------------------------------------
    # Normal-case phases
    # ------------------------------------------------------------------
    def process_pre_prepare(self, sender: str, pp: PrePrepare,
                            envelope: Signed) -> None:
        """Validate and adopt a pre-prepare (normal case or new-view)."""
        if self._deferred(sender, pp, envelope) or pp.view != self.view:
            return
        if sender != self.primary_of(pp.view):
            return
        # Emitted with the *claimed* digest before validation: an
        # equivocating primary never reaches divergent commits, so
        # this is where the conformance monitor sees the fork.
        self.host.obs.emit(
            self.host.sim.now, "pbft.preprepare",
            node=self.host.node_id, sender=sender, view=pp.view,
            sequence=pp.sequence, digest=pp.batch_digest.hex(),
            group=self._group_key, f=self.f)
        if not (self.low_water_mark < pp.sequence <= self.high_water_mark) \
                or not self.batch_valid(pp):
            return
        slot = self._slot(pp.sequence)
        if slot.executed:
            return
        if slot.pre_prepare is not None and slot.view == pp.view:
            if slot.batch_digest != pp.batch_digest:
                return  # conflicting pre-prepare from an equivocating primary
        obs = self.host.obs
        extra = {"grp": self._causal_tag()} if obs.causal else {}
        obs.span_open(self.host.sim.now, "pbft",
                      self._span_key(pp.view, pp.sequence),
                      node=self.host.node_id, batch=len(pp.batch),
                      role="backup", **extra)
        self._adopt(slot, pp.view, pp, envelope)
        if not slot.sent_prepare and not self.is_primary:
            slot.sent_prepare = True
            prepare = Prepare(view=pp.view, sequence=pp.sequence,
                              batch_digest=pp.batch_digest,
                              sender=self.host.node_id)
            self.host.multicast_signed(self.others, prepare)
        self._check_prepared(slot)

    def pre_prepare_valid(self, envelope: Signed) -> bool:
        """Whether ``envelope`` is a pre-prepare its view's primary signed,
        with a valid batch."""
        pp = inner(envelope.payload)
        if type(pp) is not PrePrepare \
                or pp.sender != self.primary_of(pp.view) \
                or not verify_signed(self.host.keys, envelope):
            return False
        return self.batch_valid(pp)

    def batch_valid(self, pp: PrePrepare) -> bool:
        """Whether ``pp``'s batch hashes to its digest and each request in
        it verifies under its client's signature."""
        return digest(tuple(env.payload for env in pp.batch)) \
            == pp.batch_digest \
            and all(verify_signed(self.host.keys, env) for env in pp.batch)

    def _adopt(self, slot: Slot, view: int, pp: PrePrepare,
               envelope: Signed) -> None:
        """Make ``pp`` (signed as ``envelope``) ``slot``'s proposal in
        ``view`` and take its requests out of ``pending``, guarded until
        they execute."""
        slot.propose(view, envelope, pp.batch_digest, pp.batch)
        for req_env in pp.batch:
            req_digest = digest(req_env.payload)
            self.pending.pop(req_digest, None)
            self._digest_sequence[req_digest] = pp.sequence
            self._start_request_timer(req_digest)

    def _on_prepare(self, sender: str, prepare: Prepare,
                    envelope: Signed) -> None:
        if self._deferred(sender, prepare, envelope) \
                or prepare.view != self.view:
            return
        if sender == self.primary_of(prepare.view):
            return  # the primary's pre-prepare is its prepare
        slot = self._voted_slot(sender, prepare)
        if slot is None:
            return
        slot.prepare_envelopes[sender] = envelope
        self._check_prepared(slot)

    def _voted_slot(self, sender: str, vote: Prepare | Commit) -> Slot | None:
        """The slot ``vote`` counts for, if a member cast it for the slot's
        view (and batch, once the pre-prepare is here)."""
        if sender not in self.others:
            return None
        if not (self.low_water_mark < vote.sequence <= self.high_water_mark):
            # A claimed out-of-window sequence must not allocate a slot:
            # a Byzantine peer could otherwise grow `slots` without bound.
            return None
        slot = self._slot(vote.sequence)
        if vote.view != slot.view or slot.batch_digest not in (
                None, vote.batch_digest):
            return None
        return slot

    def prepared_by(self, slot: Slot) -> set[str]:
        """Members whose prepare for ``slot``'s batch in its view this
        replica holds, verified — its own too, once it sent it."""
        voters = set(slot.prepare_envelopes)
        if slot.sent_prepare:
            voters.add(self.host.node_id)
        return voters

    def is_prepared(self, slot: Slot) -> bool:
        """Prepared predicate: pre-prepare plus 2f matching prepares."""
        if slot.pre_prepare is None:
            return False
        voters = self.prepared_by(slot)
        voters.add(self.primary_of(slot.view))
        return len(voters) >= self.quorum

    def _check_prepared(self, slot: Slot) -> None:
        if slot.sent_commit or slot.committed or not self.is_prepared(slot):
            return
        slot.sent_commit = True
        commit = Commit(view=slot.view, sequence=slot.sequence,
                        batch_digest=slot.batch_digest,
                        sender=self.host.node_id)
        slot.commits[self.host.node_id] = slot.batch_digest
        self.host.multicast_signed(self.others, commit)
        self._check_committed(slot)

    def _on_commit(self, sender: str, commit: Commit,
                   envelope: Signed) -> None:
        if self._deferred(sender, commit, envelope):
            return
        slot = self._voted_slot(sender, commit)
        if slot is None:
            return
        slot.commits[sender] = commit.batch_digest
        self._check_committed(slot)

    def _check_committed(self, slot: Slot) -> None:
        if slot.committed or not self.is_prepared(slot):
            return
        if len(slot.commits) < self.quorum:
            return
        slot.committed = True
        extra = {}
        if self.quorum != intra_zone_quorum(self.f):
            # Non-default backend: let the conformance monitor check
            # against the engine's quorum, not the 3f+1 assumption.
            extra["quorum"] = self.quorum
        self.host.obs.emit(
            self.host.sim.now, "pbft.commit",
            node=self.host.node_id, view=slot.view,
            sequence=slot.sequence, digest=slot.batch_digest.hex(),
            signers=sorted(slot.commits),
            group=self._group_key, f=self.f, **extra)
        self._try_execute()

    # ------------------------------------------------------------------
    # Deferred messages (arrived before their view was activated)
    # ------------------------------------------------------------------
    def _deferred(self, sender: str, payload: Any, envelope: Signed) -> bool:
        """Whether ``payload`` is of a view not active here yet: then it
        waits for that view (so one of the view in force is active)."""
        if payload.view < self.view \
                or (payload.view == self.view and self.view_active):
            return False
        if len(self._future) < 4096:
            self._future.append((sender, payload, envelope))  # lint: allow[taint-flow] bounded (4096) defer buffer; entries re-enter the full verifying handlers on view activation
        if not self.view_active or payload.view <= self.view \
                or sender not in self.others:
            return True
        # Members already at work in a later view: once f+1 are (one of
        # them correct), the zone activated that view while this replica
        # was down or cut off. Ask to join it; its primary answers with
        # the NEW-VIEW (ViewChangeManager).
        ahead: dict[str, int] = {}
        for held_by, held, _ in self._future:
            if held_by in self.others and held.view > self.view:
                ahead[held_by] = max(ahead.get(held_by, 0), held.view)
        quorum = self.profile.weak_quorum
        if len(ahead) >= quorum:
            self.view_changes.initiate(
                sorted(ahead.values(), reverse=True)[quorum - 1])
        return True

    def replay_deferred(self) -> None:
        """Re-dispatch messages buffered for the now-active view."""
        ready, still_future = [], []
        for item in self._future:
            if item[1].view <= self.view:
                ready.append(item)
            else:
                still_future.append(item)
        self._future = still_future
        for sender, payload, envelope in ready:
            if isinstance(payload, PrePrepare):
                self.process_pre_prepare(sender, payload, envelope)
            elif isinstance(payload, Prepare):
                self._on_prepare(sender, payload, envelope)
            elif isinstance(payload, Commit):
                self._on_commit(sender, payload, envelope)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _try_execute(self) -> None:
        while True:
            slot = self.slots.get(self.last_executed + 1)
            if slot is None or not slot.committed or slot.executed:
                return
            slot.executed = True
            self.last_executed = slot.sequence
            self._execute_batch(slot)
            if self.on_executed is not None:
                self.on_executed(slot.sequence)
            self.checkpoints.maybe_checkpoint(self.last_executed)

    def _execute_batch(self, slot: Slot) -> None:
        self.executed_batches += 1
        obs = self.host.obs
        obs.count("pbft.executed_batches")
        obs.count("pbft.executed_requests", len(slot.batch))
        obs.span_close(self.host.sim.now, "pbft",
                       self._span_key(slot.view, slot.sequence),
                       node=self.host.node_id)
        obs.emit(self.host.sim.now, "pbft.execute",
                 node=self.host.node_id, view=slot.view,
                 sequence=slot.sequence, batch=len(slot.batch),
                 group=self._group_key)
        for req_env in slot.batch:
            request = req_env.payload
            result = self.app.execute(request.operation, request.sender)
            self.executed_requests += 1
            self.client_table[request.sender] = (request.timestamp, result)
            self._cancel_request_timer(digest(request))
            self._send_reply(req_env, result)
        self.host.occupy(self.host.cost_model.execution_time(len(slot.batch)))

    def _send_reply(self, req_env: Signed, result: Any) -> None:
        request = req_env.payload
        if self.reply_fn is not None:
            self.reply_fn(req_env, result)
            return
        reply = ClientReply(view=self.view, timestamp=request.timestamp,
                            client_id=request.sender, result=result,
                            sender=self.host.node_id)
        self.host.send_signed(request.sender, reply)  # lint: allow[taint-flow] client reply echoes the request's own timestamp back to its authenticated sender

    # ------------------------------------------------------------------
    # Checkpoint / view-change plumbing
    # ------------------------------------------------------------------
    def _on_stable_checkpoint(self, sequence: int) -> None:
        self.view_changes.recheck()
        if sequence > self.last_executed:
            self._try_execute()
        if sequence > self.last_executed:
            # The zone's stable state is ahead of what this replica has
            # executed (it crashed or was partitioned away while the zone
            # progressed). The missing slots may be garbage-collected
            # zone-wide, so fetch the snapshot and fast-forward; keep our
            # slots until it arrives.
            self.checkpoints.request_snapshot(sequence)
            return
        self._prune(sequence)
        if self.is_primary:
            self.next_sequence = max(self.next_sequence, sequence)
            self._maybe_propose()

    def _adopt_checkpoint(self, checkpoint) -> None:
        """Fast-forward to a fetched stable-checkpoint snapshot."""
        if checkpoint.sequence <= self.last_executed:
            return
        before = self.app.snapshot()
        self.app.restore(checkpoint.snapshot)
        if self.app.state_digest() != checkpoint.state_digest:
            self.app.restore(before)  # forged snapshot; wait for another
            return
        self.last_executed = checkpoint.sequence
        # Hold the adopted snapshot locally so we can serve fetches too.
        self.checkpoints.store.record_local(checkpoint)
        self._prune(checkpoint.sequence)
        obs = self.host.obs
        obs.count("pbft.catchup")
        obs.emit(self.host.sim.now, "pbft.catchup",
                 node=self.host.node_id, group=self._group_key,
                 sequence=checkpoint.sequence)
        self._try_execute()

    def _serve_gap(self, member: str, sequence: int) -> None:
        """``member`` lacks ``sequence`` on, and no snapshot here covers
        it: tell it each slot this replica executed from there on, in
        whatever view — each once per member and view."""
        first = max(sequence, self.low_water_mark + 1)
        served = self._gap_served.get(member)
        if served is not None and served[0] == self.view:
            first = max(first, served[1] + 1)
        if first > self.last_executed:
            return
        self._gap_served[member] = (self.view, self.last_executed)
        for seq in range(first, self.last_executed + 1):
            self.host.send_signed(member, GapReply(
                pre_prepare=self.slots[seq].pre_prepare,
                sender=self.host.node_id))

    def _on_gap_reply(self, sender: str, reply: GapReply,
                      envelope: Signed) -> None:
        """``sender`` executed ``reply``'s batch at its sequence. Once
        ``f+1`` members report one batch there, a correct one executed
        it, so this replica does too (Castro-Liskov's state transfer).
        Reports count only once it has asked for a gap in its current
        view."""
        pp = inner(reply.pre_prepare.payload)
        since = self._gap_since
        if sender not in self.others or type(pp) is not PrePrepare \
                or since is None or since[0] != self.view \
                or not (self.last_executed < pp.sequence
                        <= self.high_water_mark):
            return
        slot = self.slots.get(pp.sequence)
        if slot is not None and slot.committed \
                or not self.pre_prepare_valid(reply.pre_prepare):
            return
        reports = self._gap_reports.setdefault(pp.sequence, {})
        reports[sender] = pp.batch_digest
        if list(reports.values()).count(pp.batch_digest) \
                < self.profile.weak_quorum:
            return
        del self._gap_reports[pp.sequence]
        slot = self._slot(pp.sequence)
        if slot.batch_digest != pp.batch_digest:
            # Never back to an earlier view: votes of a view this replica
            # has left must not reach the slot.
            self._adopt(slot, max(slot.view, pp.view), pp, reply.pre_prepare)
        slot.committed = True
        self._try_execute()

    def _prune(self, sequence: int) -> None:
        """Let go of the slots a checkpoint at ``sequence`` covers."""
        for seq in [s for s in self.slots if s <= sequence]:
            del self.slots[seq]
        for seq in [s for s in self._gap_reports if s <= sequence]:
            del self._gap_reports[seq]
        for d in [d for d, s in self._digest_sequence.items() if s <= sequence]:
            del self._digest_sequence[d]

    def prepared_slots(self) -> list[Slot]:
        """Slots above the stable checkpoint that reached prepared."""
        return [s for s in self.slots.values()
                if s.sequence > self.low_water_mark and self.is_prepared(s)]
