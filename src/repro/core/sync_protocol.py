"""Data synchronization protocol (Algorithm 1).

Orders global transactions (client migrations) across all zones of a
cluster with *linear* top-level communication and a *majority-of-zones*
quorum. The top level follows Paxos (propose, promise, accept, accepted,
commit); every top-level message carries a ``2f+1`` intra-zone certificate
built by an endorsement round (:mod:`repro.core.endorsement`), which is
what confines Byzantine behaviour inside zones.

With the *stable leader* optimisation (multi-Paxos style, used in the
paper's evaluation) the propose/promise leader-election phases are
skipped and the protocol runs accept → accepted → commit.

The global primary *batches* migration requests: one ballot orders a batch
of requests, amortising the endorsement rounds and WAN phases — the same
batching every PBFT deployment applies to local transactions.

Execution ordering: each message names ``prev_ballot``, the latest ballot
its sender had accepted; a COMMIT executes only after its predecessor, so
all nodes apply migrations to the meta-data in the same order. A missing
predecessor is fetched with RESPONSE-QUERY (paper §V-A); a held
cross-cluster one is waited for (its CROSS-COMMIT commits it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.metadata import MigrationOutcome
from repro.crypto.digest import digest
from repro.messages.base import Signed, verify_signed
from repro.messages.client import MigrationRequest
from repro.messages.query import ResponseQuery
from repro.messages.trace import trace_id
from repro.messages.sync import (GENESIS_BALLOT, Accept, Accepted, Ballot,
                                 CheckpointRef, GlobalCommit, Promise, Propose,
                                 accept_body, accepted_body, commit_body,
                                 promise_body, propose_body)
from repro.sim.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import ZiziphusNode

__all__ = ["SyncConfig", "SyncEngine", "GlobalTxnState"]

#: Cap on retained committed envelopes (response-query replay window).
_COMMIT_HISTORY = 512
#: The endorsement rounds a ballot runs in its initiator zone and in a
#: follower zone (instance kinds, as ``SyncEngine._instance`` names them).
_INITIATOR_ROUNDS = ("gsync-propose", "gsync-accept", "gsync-commit")
_FOLLOWER_ROUNDS = ("gsync-promise", "gsync-accepted")
#: ``GlobalTxnState.phase`` while this node, as its zone's primary, still
#: has a COMMIT of its own to build for the ballot.
_DRIVING = frozenset({"propose", "promise-wait", "accept", "accepted-wait",
                      "commit"})
#: The deadline phase of a node waiting for a COMMIT it will not build:
#: a follower zone's, or a held ballot's CROSS-COMMIT.
_COMMIT_WAIT = "commit-wait"


@dataclass
class SyncConfig:
    """Tunables for the data synchronization protocol."""

    #: Multi-Paxos stable leader: skip the propose/promise phases.
    stable_leader: bool = True
    #: Ablation: run the PBFT prepare round in *every* endorsement (the
    #: paper's optimisation is to skip it once the ballot is certified).
    full_prepare_everywhere: bool = False
    #: Global batching: migrations ordered per ballot (1 disables).
    global_batch_size: int = 8
    global_batch_timeout_ms: float = 2.0
    #: Follower timeout waiting for COMMIT after sending ACCEPTED.
    commit_timeout_ms: float = 4_000.0
    #: Initiator timeout waiting for a majority of PROMISE/ACCEPTED.
    phase_timeout_ms: float = 4_000.0
    #: Non-primary timeout waiting for the primary to start an endorsement.
    watch_timeout_ms: float = 2_000.0
    #: Generate a local checkpoint whenever a migration request arrives
    #: (the paper's lazy-synchronization policy).
    checkpoint_on_migration: bool = True


# ----------------------------------------------------------------------
# Endorsement payload contexts (what intra-zone nodes validate and sign)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProposeContext:
    """Endorsed by the initiator zone before PROPOSE goes out."""

    ballot: Ballot
    requests: tuple[Signed, ...]


@dataclass(frozen=True)
class PromiseContext:
    """Endorsed by a follower zone before PROMISE goes back."""

    ballot: Ballot
    prev_ballot: Ballot
    zone_id: str
    propose: Propose


@dataclass(frozen=True)
class AcceptContext:
    """Endorsed by the initiator zone before ACCEPT goes out.

    Carries the PROMISE envelopes (q1, q2, ... in the paper's pre-prepare)
    so zone nodes can check the majority quorum themselves. Empty under
    the stable-leader optimisation.
    """

    ballot: Ballot
    prev_ballot: Ballot
    requests: tuple[Signed, ...]
    promises: tuple[Signed, ...]


@dataclass(frozen=True)
class AcceptedContext:
    """Endorsed by a follower zone before ACCEPTED goes back."""

    ballot: Ballot
    prev_ballot: Ballot
    zone_id: str
    accept: Accept


@dataclass(frozen=True)
class CommitContext:
    """Endorsed by the initiator zone before COMMIT goes out."""

    ballot: Ballot
    prev_ballot: Ballot
    requests: tuple[Signed, ...]
    accepteds: tuple[Signed, ...]


@dataclass
class GlobalTxnState:
    """Per-ballot protocol state on one node."""

    ballot: Ballot
    batch: tuple[Signed, ...] = ()
    request_digest: bytes | None = None
    prev_ballot: Ballot | None = None
    phase: str = "start"
    #: Follower zones' PROMISE / ACCEPTED envelopes by zone; ``None``
    #: once the ballot executed here and no COMMIT of this node's is
    #: still to be built from them.
    promises: dict[str, Signed] | None = field(default_factory=dict)
    accepteds: dict[str, Signed] | None = field(default_factory=dict)
    commit_env: Signed | None = None
    committed: bool = False
    executed: bool = False
    #: The ballot's one pending deadline (``SyncEngine._arm_deadline``).
    deadline: Any = None


def batch_digest(batch: tuple[Signed, ...]) -> bytes:
    """Canonical digest identifying a batch of signed requests."""
    return digest(tuple(env.payload for env in batch))


class SyncEngine:
    """Runs Algorithm 1 for one node within one set of participant zones."""

    def __init__(self, node: "ZiziphusNode", zone_ids: list[str],
                 config: SyncConfig | None, engine) -> None:
        self.node = node
        self.directory = node.directory
        self.zone_ids = list(zone_ids)
        self.config = config or SyncConfig()
        self.my_zone = node.zone_info
        #: Global consensus backend steering ballot assignment
        #: (repro.consensus).
        self.engine = engine
        self._rng = derive_rng(0, "sync", node.node_id)

        self.highest_seen = 0
        self.last_accepted = GENESIS_BALLOT
        #: Lemma 5.5 guard: the zone endorses at most one ballot per global
        #: sequence number (allows pipelined instances, forbids conflicts).
        self.accepted_seqs: dict[int, str] = {}
        self.txns: dict[Ballot, GlobalTxnState] = {}
        #: Per-ballot execution results: client id -> result tuple.
        self.executed_results: dict[Ballot, dict[str, Any]] = {}
        self.pending_commits: dict[Ballot, list[Ballot]] = {}
        #: Each request this node has seen in a ballot's batch, by the
        #: ballot that last carried it here: a retransmission is answered
        #: from it, never proposed again, by whichever node leads.
        self.request_dedup: dict[tuple[str, int], Ballot] = {}
        self._batch_buffer: dict[tuple[str, int], Signed] = {}
        self._batch_timer = None
        self._watched_requests: set[tuple[str, int]] = set()
        self._query_log: dict[Ballot, set[str]] = {}
        #: When this node's current view activated (0 for the first).
        self._view_since = 0.0
        self._commit_order: list[Ballot] = []
        self.migrations_executed = 0
        #: Commuting-execution mode only: per-client request-timestamp
        #: high-water mark of *applied* migrations. A ballot carrying an
        #: older request of the client is superseded (skipped), which
        #: makes application order-insensitive when concurrent initiators
        #: fork the ``prev_ballot`` chain into a tree.
        self._client_exec_ts: dict[str, int] = {}

        node.register_handler(MigrationRequest, self._on_migration_request)
        node.register_handler(Propose, self._on_propose)
        node.register_handler(Promise, self._on_promise)
        node.register_handler(Accept, self._on_accept)
        node.register_handler(Accepted, self._on_accepted)
        node.register_handler(GlobalCommit, self._on_commit)
        node.register_handler(ResponseQuery, self._on_response_query)

        endorse = node.endorsement
        endorse.register_kind("gsync-propose",
                              validator=self._validate_propose_ctx)
        endorse.register_kind("gsync-promise",
                              validator=self._validate_promise_ctx)
        endorse.register_kind("gsync-accept",
                              validator=self._validate_accept_ctx)
        endorse.register_kind("gsync-accepted",
                              validator=self._validate_accepted_ctx)
        endorse.register_kind("gsync-commit",
                              validator=self._validate_commit_ctx)
        node.replica.on_view_change.append(self._on_local_view_change)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _instance(self, phase: str, ballot: Ballot) -> str:
        return f"gsync-{phase}/{ballot.key}"

    def _txn(self, ballot: Ballot) -> GlobalTxnState:
        txn = self.txns.get(ballot)
        if txn is None:
            txn = GlobalTxnState(ballot=ballot)
            self.txns[ballot] = txn
        return txn

    def _is_zone_primary(self) -> bool:
        return self.node.replica.is_primary

    @property
    def majority(self) -> int:
        """Majority-of-zones quorum Q_M."""
        return self.directory.majority_quorum(self.zone_ids)

    def _other_zone_nodes(self) -> list[str]:
        return [m for zid in self.zone_ids if zid != self.my_zone.zone_id
                for m in self.directory.zone(zid).members]

    def _use_prepare(self, assigning_ballot: bool) -> bool:
        return self.config.full_prepare_everywhere or assigning_ballot

    def _my_checkpoint_ref(self) -> CheckpointRef | None:
        stable = self.node.replica.checkpoints.stable
        if stable is None:
            return None
        return CheckpointRef(zone_id=self.my_zone.zone_id,
                             sequence=stable.sequence,
                             state_digest=stable.state_digest,
                             snapshot=stable.snapshot or {})

    def result_for(self, ballot: Ballot, client_id: str) -> Any:
        """Execution result of one request within a committed ballot."""
        results = self.executed_results.get(ballot)
        if results is None:
            return None
        return results.get(client_id)

    def _answer_executed(self, request: MigrationRequest,
                         result: Any) -> None:
        """What the initiator zone tells the client about a request it
        executed, first time or on a retransmission. An accepted
        migration is only *sub1*-committed here: that it happened is for
        the destination zone to say, once it has appended R(c)."""
        if request.operation and request.operation[0] == "migrate" \
                and result[0] == "migrated":
            result = ("sub1-committed",) + result
        self.node.reply_to_client(request, result)

    def _mark_stale_sources(self, ballot: Ballot,
                            batch: tuple[Signed, ...]) -> None:
        for env in batch:
            request = env.payload
            self.request_dedup[request.key] = ballot
            if request.operation and request.operation[0] == "migrate" and \
                    request.source_zone == self.my_zone.zone_id:
                self.node.locks.mark_stale(request.sender)

    def _majority_certified(self, votes: tuple[Signed, ...], ballot: Ballot,
                            body_of) -> bool:
        """Whether the PROMISE / ACCEPTED envelopes the primary claims,
        each signed, for ``ballot`` and carrying a valid nested zone
        certificate over ``body_of(...)``, reach the majority of zones
        (+1: the initiator zone's own certified agreement counts)."""
        zones = set()
        for env in votes:
            if not verify_signed(self.node.keys, env):
                continue
            vote = env.payload
            if vote.ballot != ballot:
                continue
            body = body_of(vote.ballot, vote.prev_ballot, vote.zone_id,
                           vote.request_digest)
            if self.directory.cert_valid(vote.cert, body, vote.zone_id):
                zones.add(vote.zone_id)
        return len(zones) + 1 >= self.majority

    def _valid_batch(self, batch: tuple[Signed, ...]) -> bool:
        for env in batch:
            if not isinstance(env.payload, MigrationRequest):
                return False
            if not verify_signed(self.node.keys, env):
                return False
        return True

    def _valid_batch_body(self, batch: tuple[Signed, ...], body: bytes,
                          body_of, *ballots: Ballot) -> bytes | None:
        """The batch digest, if every request verifies and the batch
        hashes to ``body`` (= ``body_of(*ballots, digest)``); else None."""
        if self._valid_batch(batch):
            request_digest = batch_digest(batch)
            if body == body_of(*ballots, request_digest):
                return request_digest
        return None

    def _held(self, txn: GlobalTxnState) -> bool:
        """Paper §VI: one migration between clusters commits only by the
        CROSS-COMMIT joining it with the other cluster's ballot."""
        return len(txn.batch) == 1 and \
            self.directory.crosses_clusters(txn.batch[0].payload)

    def _rival_at(self, ballot: Ballot) -> bool:
        """Lemma 5.5 guard: this zone endorsed another ballot at the seq."""
        return self.accepted_seqs.get(ballot.seq, ballot.zone_id) != \
            ballot.zone_id

    # ------------------------------------------------------------------
    # Client request intake and batching (initiator zone)
    # ------------------------------------------------------------------
    def _on_migration_request(self, sender: str, request: MigrationRequest,
                              envelope: Signed) -> None:
        done = self.request_dedup.get(request.key)
        if done is not None:
            result = self.result_for(done, request.sender)
            if result is not None:
                self._answer_executed(request, result)
            return
        if not self._is_zone_primary():
            self.node.forward(self.node.replica.primary, envelope)
            self._watch_request(envelope)
            return
        if request.key in self._batch_buffer:
            return
        self._batch_buffer[request.key] = envelope
        if len(self._batch_buffer) >= self.config.global_batch_size:
            self._flush_batch()
        elif self._batch_timer is None:
            self._batch_timer = self.node.set_timer(
                self.config.global_batch_timeout_ms, self._on_batch_timeout)

    def _on_batch_timeout(self) -> None:
        self._batch_timer = None
        if self._batch_buffer:
            self._flush_batch()

    def _flush_batch(self) -> None:
        if self._batch_timer is not None:
            self._batch_timer.cancel()
            self._batch_timer = None
        if not self.node.replica.view_active:
            return  # the next view's primary takes it (_on_local_view_change)
        batch = tuple(self._batch_buffer.values())
        self._batch_buffer.clear()
        if self._is_zone_primary():
            self.start_global_txn(batch)
            return
        # Buffered as primary, flushed after a view change demoted this
        # node: a ballot led from here would rival the new primary's.
        for envelope in batch:
            self.node.forward(self.node.replica.primary, envelope)
            self._watch_request(envelope)

    def start_global_txn(self, batch: tuple[Signed, ...]) -> Ballot:
        """Assign a ballot to a batch and launch the protocol (primary only)."""
        ballot = self.engine.propose(self, batch)
        self.highest_seen = max(self.highest_seen, ballot.seq)
        for env in batch:
            self.request_dedup[env.payload.key] = ballot
        txn = self._txn(ballot)
        txn.batch = batch
        txn.request_digest = batch_digest(batch)
        obs = self.node.obs
        obs.count("sync.txns")
        obs.span_open(self.node.sim.now, "global-txn", ballot.key,
                      node=self.node.node_id, batch=len(batch))
        obs.emit(self.node.sim.now, "sync.start",
                 node=self.node.node_id, ballot=ballot.key,
                 batch=len(batch), stable=self.config.stable_leader)
        if obs.causal:
            # Bind the ballot (and through it every sync-phase and
            # endorse span keyed by it) to the traced requests.
            obs.emit(self.node.sim.now, "trace.link",
                     node=self.node.node_id, scope="sync",
                     key=ballot.key,
                     traces=[trace_id(env.payload) for env in batch])
        if self.config.checkpoint_on_migration:
            self.node.replica.checkpoints.generate(
                self.node.replica.last_executed)
        if self.config.stable_leader:
            self._start_accept_phase(txn, promises=())
        else:
            self._start_propose_phase(txn)
        return ballot

    def _watch_request(self, envelope: Signed) -> None:
        key = envelope.payload.key
        if key in self._watched_requests:
            return
        self.node.set_timer(self.config.watch_timeout_ms,
                            self._on_request_watch_expired, key,
                            self.node.replica.judged_view)
        self._watched_requests.add(key)

    def _on_request_watch_expired(self, key: tuple[str, int],
                                  armed_in: int) -> None:
        self._watched_requests.discard(key)
        if key in self.request_dedup:
            return  # some ballot picked the request up
        self.node.replica.view_changes.suspect(armed_in)

    # ------------------------------------------------------------------
    # PROPOSE phase (initiator zone)
    # ------------------------------------------------------------------
    def _start_propose_phase(self, txn: GlobalTxnState) -> None:
        txn.phase = "propose"
        self.node.obs.span_open(self.node.sim.now, "propose",
                                txn.ballot.key, node=self.node.node_id)
        context = ProposeContext(ballot=txn.ballot, requests=txn.batch)
        body = propose_body(txn.ballot, txn.request_digest)
        self.node.endorsement.lead(
            self._instance("propose", txn.ballot), context, body,
            use_prepare=self._use_prepare(assigning_ballot=True),
            on_cert=lambda cert, b=txn.ballot: self._send_propose(b, cert))

    def _send_propose(self, ballot: Ballot, cert) -> None:
        txn = self._txn(ballot)
        propose = Propose(view=self.node.replica.view, ballot=ballot,
                          requests=txn.batch, cert=cert,
                          sender=self.node.node_id)
        txn.phase = "promise-wait"
        obs = self.node.obs
        now = self.node.sim.now
        obs.span_close(now, "propose", ballot.key, node=self.node.node_id)
        obs.span_open(now, "promise", ballot.key, node=self.node.node_id)
        self.node.multicast_signed(self._other_zone_nodes(), propose)
        self._arm_deadline(txn, "promise-wait")

    def _validate_propose_ctx(self, instance: str, context: Any,
                              endorse_digest: bytes) -> bool:
        if not isinstance(context, ProposeContext):
            return False
        request_digest = self._valid_batch_body(
            context.requests, endorse_digest, propose_body, context.ballot)
        if request_digest is None:
            return False
        if context.ballot.zone_id != self.my_zone.zone_id:
            return False
        if not self.engine.valid_assignment(context.ballot, self.zone_ids):
            return False
        if context.ballot.seq <= self.highest_seen - 1:
            return False  # stale/duplicate sequence from the primary
        self.highest_seen = max(self.highest_seen, context.ballot.seq)
        txn = self._txn(context.ballot)
        txn.batch = context.requests
        txn.request_digest = request_digest
        return True

    # ------------------------------------------------------------------
    # PROMISE phase (follower zones)
    # ------------------------------------------------------------------
    def _absorb_propose(self, propose: Propose,
                        request_digest: bytes) -> GlobalTxnState:
        """What a follower-zone node takes from a PROPOSE whose certificate
        the caller — wire handler or promise-context validator — checked."""
        self.highest_seen = max(self.highest_seen, propose.ballot.seq)
        txn = self._txn(propose.ballot)
        txn.batch = propose.requests
        txn.request_digest = request_digest
        self._mark_stale_sources(propose.ballot, propose.requests)
        return txn

    def _on_propose(self, sender: str, propose: Propose,
                    envelope: Signed) -> None:
        request_digest = batch_digest(propose.requests)
        if not self.node.check_cert(
                "propose", propose.ballot.zone_id, propose.cert,
                propose_body(propose.ballot, request_digest), sender,
                propose.ballot.key):
            return
        if propose.ballot.seq <= self.highest_seen and \
                propose.ballot not in self.txns:
            return  # stale proposal; initiator will retry with a higher n
        if not self._valid_batch(propose.requests):
            return
        self._absorb_propose(propose, request_digest)
        if self.config.checkpoint_on_migration:
            self.node.replica.checkpoints.generate(
                self.node.replica.last_executed)
        instance = self._instance("promise", propose.ballot)
        if self._is_zone_primary():
            context = PromiseContext(ballot=propose.ballot,
                                     prev_ballot=self.last_accepted,
                                     zone_id=self.my_zone.zone_id,
                                     propose=propose)
            body = promise_body(propose.ballot, self.last_accepted,
                                self.my_zone.zone_id, request_digest)
            self.node.endorsement.lead(
                instance, context, body,
                use_prepare=self._use_prepare(assigning_ballot=False),
                on_cert=lambda cert, b=propose.ballot:
                self._send_promise(b, cert))
        else:
            self._watch(instance)

    def _send_promise(self, ballot: Ballot, cert) -> None:
        txn = self._txn(ballot)
        # The prev_ballot the members endorsed, so that a new primary
        # re-leading the banked instance sends the same PROMISE.
        prev = self.node.endorsement.instance_state(
            self._instance("promise", ballot)).payload.prev_ballot
        promise = Promise(view=self.node.replica.view, ballot=ballot,
                          prev_ballot=prev, zone_id=self.my_zone.zone_id,
                          request_digest=txn.request_digest, cert=cert,
                          sender=self.node.node_id)
        txn.phase = "promised"
        self.node.obs.emit(self.node.sim.now, "sync.promise",
                           node=self.node.node_id, ballot=ballot.key,
                           zone=self.my_zone.zone_id)
        initiator_nodes = self.directory.zone(ballot.zone_id).members
        self.node.multicast_signed(initiator_nodes, promise)

    def _validate_promise_ctx(self, instance: str, context: Any,
                              endorse_digest: bytes) -> bool:
        if not isinstance(context, PromiseContext):
            return False
        propose = context.propose
        if context.zone_id != self.my_zone.zone_id or \
                context.ballot != propose.ballot:
            return False
        request_digest = batch_digest(propose.requests)
        if not self.directory.cert_valid(
                propose.cert, propose_body(propose.ballot, request_digest),
                propose.ballot.zone_id):
            return False
        if endorse_digest != promise_body(context.ballot, context.prev_ballot,
                                          context.zone_id, request_digest):
            return False
        if context.prev_ballot >= context.ballot:
            return False
        self._absorb_propose(propose, request_digest)
        return True

    # ------------------------------------------------------------------
    # ACCEPT phase (initiator zone)
    # ------------------------------------------------------------------
    def _collect_verified(self, sender: str, vote: Any, envelope: Signed,
                          kind: str, body_of,
                          votes_of) -> GlobalTxnState | None:
        """Initiator zone: verify a follower zone's PROMISE / ACCEPTED
        (``kind``) and bank it in ``votes_of(txn)``. Returns the txn when,
        on the primary waiting for them, it completes a majority of zones."""
        if self.my_zone.zone_id != vote.ballot.zone_id:
            return None
        body = body_of(vote.ballot, vote.prev_ballot, vote.zone_id,
                       vote.request_digest)
        if not self.node.check_cert(kind, vote.zone_id, vote.cert, body,
                                    sender, vote.ballot.key):
            return None
        txn = self._txn(vote.ballot)
        votes = votes_of(txn)
        if votes is None:
            return None  # executed and let go: booked above, banked nowhere
        votes[vote.zone_id] = envelope
        if not self._is_zone_primary() or txn.phase != f"{kind}-wait":
            return None
        # +1: the initiator zone's own (certified) agreement counts.
        if len(votes) + 1 < self.majority:
            return None
        self._disarm(txn)
        self.node.obs.span_close(self.node.sim.now, kind, vote.ballot.key,
                                 node=self.node.node_id, zones=len(votes) + 1)
        return txn

    def _on_promise(self, sender: str, promise: Promise,
                    envelope: Signed) -> None:
        txn = self._collect_verified(sender, promise, envelope, "promise",
                                     promise_body, lambda t: t.promises)
        if txn is not None:
            self._start_accept_phase(txn,
                                     promises=tuple(txn.promises.values()))

    def _start_accept_phase(self, txn: GlobalTxnState,
                            promises: tuple[Signed, ...]) -> None:
        prev = max([self.last_accepted]
                   + [env.payload.prev_ballot for env in promises])
        txn.prev_ballot = prev
        txn.phase = "accept"
        self.node.obs.span_open(self.node.sim.now, "accept",
                                txn.ballot.key, node=self.node.node_id)
        self.last_accepted = max(self.last_accepted, txn.ballot)
        context = AcceptContext(ballot=txn.ballot, prev_ballot=prev,
                                requests=txn.batch, promises=promises)
        body = accept_body(txn.ballot, prev, txn.request_digest)
        assigning = self.config.stable_leader  # ballot first certified here
        # Armed before lead(): the endorsement can wedge (a crashed
        # primary's conflicting assignment holds members' votes hostage
        # until a newer view overrides it), and only a retry re-multicasts
        # the pre-prepare. A synchronous cert re-arms for accepted-wait.
        self._arm_deadline(txn, "accept")
        self.node.endorsement.lead(
            self._instance("accept", txn.ballot), context, body,
            use_prepare=self._use_prepare(assigning_ballot=assigning),
            on_cert=lambda cert, b=txn.ballot: self._send_accept(b, cert))

    def _send_accept(self, ballot: Ballot, cert) -> None:
        txn = self._txn(ballot)
        piggyback = txn.batch if self.config.stable_leader else ()
        accept = Accept(view=self.node.replica.view, ballot=ballot,
                        prev_ballot=txn.prev_ballot,
                        request_digest=txn.request_digest, cert=cert,
                        sender=self.node.node_id, requests=piggyback)
        txn.phase = "accepted-wait"
        obs = self.node.obs
        now = self.node.sim.now
        obs.span_close(now, "accept", ballot.key, node=self.node.node_id)
        # A re-drive re-sends the ACCEPT: the wait runs from the first.
        obs.span_open(now, "accepted", ballot.key, node=self.node.node_id,
                      keep=True)
        self.node.multicast_signed(self._other_zone_nodes(), accept)
        self._arm_deadline(txn, "accepted-wait")
        # Accepted here: the clients it moves away are locked, and their
        # Algorithm 2 groups ship now (DESIGN.md §6.4).
        self._mark_stale_sources(ballot, txn.batch)
        self.node.migration.on_ballot_accepted(ballot, txn.batch)

    def _validate_accept_ctx(self, instance: str, context: Any,
                             endorse_digest: bytes) -> bool:
        if not isinstance(context, AcceptContext):
            return False
        if context.ballot.zone_id != self.my_zone.zone_id:
            return False
        if not self.engine.valid_assignment(context.ballot, self.zone_ids):
            return False
        request_digest = self._valid_batch_body(
            context.requests, endorse_digest, accept_body, context.ballot,
            context.prev_ballot)
        if request_digest is None:
            return False
        # Check the majority of promises the primary claims to have.
        if not self.config.stable_leader and not self._majority_certified(
                context.promises, context.ballot, promise_body):
            return False
        if self._rival_at(context.ballot):
            return False  # Lemma 5.5 guard
        self.accepted_seqs[context.ballot.seq] = context.ballot.zone_id
        self.highest_seen = max(self.highest_seen, context.ballot.seq)
        self.last_accepted = max(self.last_accepted, context.ballot)
        txn = self._txn(context.ballot)
        txn.batch = context.requests
        txn.request_digest = request_digest
        txn.prev_ballot = context.prev_ballot
        if self._held(txn):
            # Its CROSS-COMMIT is sent once: a member that misses it asks.
            self._arm_deadline(txn, _COMMIT_WAIT)
        self._mark_stale_sources(context.ballot, context.requests)
        self.node.migration.on_ballot_accepted(context.ballot, txn.batch)
        self._watch(instance)
        return True

    # ------------------------------------------------------------------
    # ACCEPTED phase (follower zones)
    # ------------------------------------------------------------------
    def _absorb_accept(self, txn: GlobalTxnState, accept: Accept) -> bool:
        """What a follower-zone node takes from an ACCEPT whose certificate
        and Lemma 5.5 guard the caller — wire handler or ACCEPTED-context
        validator — checked. ``False``: it piggy-backs a batch (stable
        leader) that does not verify or hash to the certified digest."""
        self.highest_seen = max(self.highest_seen, accept.ballot.seq)
        txn.prev_ballot = accept.prev_ballot
        txn.request_digest = accept.request_digest
        if accept.requests and not txn.batch:
            if not self._valid_batch(accept.requests) or \
                    batch_digest(accept.requests) != accept.request_digest:
                return False
            txn.batch = accept.requests
        self._mark_stale_sources(txn.ballot, txn.batch)
        return True

    def _on_accept(self, sender: str, accept: Accept,
                   envelope: Signed) -> None:
        body = accept_body(accept.ballot, accept.prev_ballot,
                           accept.request_digest)
        if not self.node.check_cert("accept", accept.ballot.zone_id,
                                    accept.cert, body, sender,
                                    accept.ballot.key):
            return
        if not self.engine.valid_assignment(accept.ballot, self.zone_ids):
            return  # sequence not assignable by that zone under this backend
        if self._rival_at(accept.ballot):
            return  # Lemma 5.5: never endorse two ballots at one sequence
        txn = self._txn(accept.ballot)
        if txn.phase == "accepted" or txn.committed:
            # Duplicate ACCEPT: the initiator zone is probing because our
            # ACCEPTED never arrived (lost to a partition, or the initiator
            # primary that collected it crashed). Re-send the certificate.
            self._relead_accepted(accept.ballot)
            return
        if self.config.checkpoint_on_migration:
            # §V-B: zones checkpoint whenever a migration reaches them
            # (under the stable leader the ACCEPT is the first contact).
            self.node.replica.checkpoints.generate(
                self.node.replica.last_executed)
        # accepted_seqs / last_accepted / the commit deadline wait for the
        # zone's own certificate (_send_accepted).
        if not self._absorb_accept(txn, accept):
            return  # the piggy-backed batch is not the certified one
        instance = self._instance("accepted", accept.ballot)
        if self._is_zone_primary():
            context = AcceptedContext(ballot=accept.ballot,
                                      prev_ballot=accept.prev_ballot,
                                      zone_id=self.my_zone.zone_id,
                                      accept=accept)
            self.node.endorsement.lead(
                instance, context,
                accepted_body(accept.ballot, accept.prev_ballot,
                              self.my_zone.zone_id, accept.request_digest),
                use_prepare=self._use_prepare(assigning_ballot=False),
                on_cert=lambda cert, b=accept.ballot: self._send_accepted(b, cert))
        else:
            self._watch(instance)

    def _send_accepted(self, ballot: Ballot, cert) -> None:
        txn = self._txn(ballot)
        txn.phase = "accepted"
        self.last_accepted = max(self.last_accepted, ballot)
        self.accepted_seqs[ballot.seq] = ballot.zone_id
        accepted = Accepted(view=self.node.replica.view, ballot=ballot,
                            prev_ballot=txn.prev_ballot,
                            zone_id=self.my_zone.zone_id,
                            request_digest=txn.request_digest, cert=cert,
                            checkpoint=self._my_checkpoint_ref(),
                            sender=self.node.node_id)
        self.node.obs.emit(self.node.sim.now, "sync.accepted",
                           node=self.node.node_id, ballot=ballot.key,
                           zone=self.my_zone.zone_id)
        initiator_nodes = self.directory.zone(ballot.zone_id).members
        self.node.multicast_signed(initiator_nodes, accepted)
        self._arm_deadline(txn, _COMMIT_WAIT)
        self.node.migration.on_ballot_accepted(ballot, txn.batch)

    def _validate_accepted_ctx(self, instance: str, context: Any,
                               endorse_digest: bytes) -> bool:
        if not isinstance(context, AcceptedContext):
            return False
        accept = context.accept
        if context.zone_id != self.my_zone.zone_id or \
                context.ballot != accept.ballot or \
                context.prev_ballot != accept.prev_ballot:
            return False
        body = accept_body(accept.ballot, accept.prev_ballot,
                           accept.request_digest)
        if not self.directory.cert_valid(accept.cert, body,
                                         accept.ballot.zone_id):
            return False
        expected = accepted_body(context.ballot, context.prev_ballot,
                                 context.zone_id, accept.request_digest)
        if endorse_digest != expected:
            return False
        if self._rival_at(context.ballot):
            return False  # Lemma 5.5 guard
        # A validating member books the zone's acceptance now; a refused
        # piggy-back does not stop it (COMMIT carries the batch again).
        self.accepted_seqs[context.ballot.seq] = context.ballot.zone_id
        self.last_accepted = max(self.last_accepted, context.ballot)
        txn = self._txn(context.ballot)
        self._absorb_accept(txn, accept)
        self._arm_deadline(txn, _COMMIT_WAIT)
        self.node.migration.on_ballot_accepted(context.ballot, txn.batch)
        return True

    # ------------------------------------------------------------------
    # COMMIT phase (initiator zone)
    # ------------------------------------------------------------------
    def _on_accepted(self, sender: str, accepted: Accepted,
                     envelope: Signed) -> None:
        txn = self._collect_verified(sender, accepted, envelope, "accepted",
                                     accepted_body, lambda t: t.accepteds)
        if txn is not None:
            self._start_commit_phase(txn)

    def _start_commit_phase(self, txn: GlobalTxnState) -> None:
        txn.phase = "commit"
        self.node.obs.span_open(self.node.sim.now, "commit",
                                txn.ballot.key, node=self.node.node_id)
        # Armed before the lead, as for the ACCEPT: members cut off from
        # its pre-prepare hold no watch on the round, and nothing else
        # would send it again. The COMMIT this node sends itself disarms.
        self._arm_deadline(txn, "commit")
        context = CommitContext(ballot=txn.ballot, prev_ballot=txn.prev_ballot,
                                requests=txn.batch,
                                accepteds=tuple(txn.accepteds.values()))
        body = commit_body(txn.ballot, txn.prev_ballot, txn.request_digest)
        self.node.endorsement.lead(
            self._instance("commit", txn.ballot), context, body,
            use_prepare=self._use_prepare(assigning_ballot=False),
            on_cert=lambda cert, b=txn.ballot: self._send_commit(b, cert))

    def _send_commit(self, ballot: Ballot, cert) -> None:
        txn = self._txn(ballot)
        self.node.obs.span_close(self.node.sim.now, "commit", ballot.key,
                                 node=self.node.node_id)
        if self._held(txn):
            # Held on whichever primary built the certificate, first time
            # or re-driving after a view change.
            txn.phase = "held"
            self._disarm(txn)
            self._arm_deadline(txn, _COMMIT_WAIT)
            self.node.cluster_engine.commit_certified(txn, cert)
        else:
            checkpoints = [env.payload.checkpoint
                           for env in txn.accepteds.values()
                           if env.payload.checkpoint is not None]
            own_ref = self._my_checkpoint_ref()
            if own_ref is not None:
                checkpoints.append(own_ref)
            commit = GlobalCommit(view=self.node.replica.view, ballot=ballot,
                                  prev_ballot=txn.prev_ballot,
                                  requests=txn.batch, cert=cert,
                                  checkpoints=tuple(checkpoints),
                                  sender=self.node.node_id)
            self.node.multicast_signed(
                self.directory.nodes_of_zones(self.zone_ids), commit,
                include_self=True)
            txn.phase = "commit-sent"
        if txn.executed:
            self._release_votes(txn)

    def _validate_commit_ctx(self, instance: str, context: Any,
                             endorse_digest: bytes) -> bool:
        if not isinstance(context, CommitContext):
            return False
        if context.ballot.zone_id != self.my_zone.zone_id:
            return False
        if self._valid_batch_body(context.requests, endorse_digest,
                                  commit_body, context.ballot,
                                  context.prev_ballot) is None:
            return False
        if not self._majority_certified(context.accepteds, context.ballot,
                                        accepted_body):
            return False
        self._watch(instance)
        return True

    # ------------------------------------------------------------------
    # EXECUTION phase (every node)
    # ------------------------------------------------------------------
    def _on_commit(self, sender: str, commit: GlobalCommit,
                   envelope: Signed) -> None:
        request_digest = batch_digest(commit.requests)
        body = commit_body(commit.ballot, commit.prev_ballot, request_digest)
        if not self.node.check_cert("commit", commit.ballot.zone_id,
                                    commit.cert, body, sender,
                                    commit.ballot.key):
            return
        if not self._valid_batch(commit.requests):
            return
        self.commit(commit.ballot, commit.prev_ballot, commit.requests,
                    request_digest, envelope, commit.checkpoints)

    def commit(self, ballot: Ballot, prev: Ballot, batch: tuple[Signed, ...],
               request_digest: bytes, envelope: Signed,
               checkpoints: tuple[CheckpointRef, ...]) -> None:
        """Commit ``ballot``, whose certificate and batch the caller
        checked: a COMMIT (:meth:`_on_commit`) or this cluster's half of a
        CROSS-COMMIT (``ClusterEngine``). ``envelope`` is what its sender
        signed, kept as the ballot's ``commit_env``: a RESPONSE-QUERY for
        the ballot is answered with it."""
        txn = self._txn(ballot)
        if txn.committed:
            return
        txn.committed = True
        obs = self.node.obs
        obs.count("sync.committed")
        obs.emit(self.node.sim.now, "sync.commit",
                 node=self.node.node_id, ballot=ballot.key,
                 batch=len(batch),
                 prev="" if prev == GENESIS_BALLOT else prev.key)
        txn.commit_env = envelope
        txn.batch = batch
        txn.request_digest = request_digest
        txn.prev_ballot = prev
        self._mark_stale_sources(ballot, batch)
        self.highest_seen = max(self.highest_seen, ballot.seq)
        self._disarm(txn)
        self._commit_order.append(ballot)
        if len(self._commit_order) > _COMMIT_HISTORY:
            stale = self._commit_order.pop(0)
            old = self.txns.get(stale)
            if old is not None and old.executed:
                old.commit_env = None
        for ref in checkpoints:
            self.node.store_remote_checkpoint(ref)
        self._try_execute(ballot)

    def _try_execute(self, ballot: Ballot) -> None:
        txn = self.txns.get(ballot)
        if txn is None or not txn.committed or txn.executed:
            return
        prev = txn.prev_ballot
        if prev != GENESIS_BALLOT and prev not in self.executed_results:
            self.pending_commits.setdefault(prev, []).append(ballot)
            before = self.txns.get(prev)
            if before is None or not (before.committed or self._held(before)):
                # We missed the predecessor: ask its initiator zone.
                self._query_zone(prev.zone_id or ballot.zone_id, prev)
            return
        txn.executed = True
        obs = self.node.obs
        obs.count("sync.executed")
        # Closes on the initiator primary that opened the ballot's
        # global-txn span; no-op on every other node.
        obs.span_close(self.node.sim.now, "global-txn",
                       ballot.key, node=self.node.node_id)
        obs.emit(self.node.sim.now, "sync.execute",
                 node=self.node.node_id, ballot=ballot.key,
                 batch=len(txn.batch))
        results: dict[str, Any] = {}
        self.executed_results[ballot] = results
        is_initiator = self.my_zone.zone_id == ballot.zone_id
        for env in txn.batch:
            request = env.payload
            operation = request.operation
            if operation and operation[0] == "migrate":
                # The destination cluster of a cross-cluster migration
                # cannot verify the source zone (regional meta-data); it
                # adopts the source cluster's certified claim instead.
                adopt = self.directory.crosses_clusters(request) and \
                    self.my_zone.cluster_id != \
                    self.directory.cluster_of_zone(request.source_zone)
                commuting = self.engine.commuting_execution
                if commuting and request.timestamp <= \
                        self._client_exec_ts.get(request.sender, -1):
                    # A newer migration of this client already applied on
                    # this node: the ballot arrived out of chain order
                    # (concurrent initiators). Skipping it — rather than
                    # rejecting on wrong-source — is what lets every
                    # interleaving converge to the same meta-data.
                    outcome = MigrationOutcome(
                        False, "superseded", request.sender,
                        request.source_zone, request.dest_zone)
                else:
                    # Commuting mode also adopts the (source-zone-
                    # certified) claim: a node that applied the client's
                    # migrations in a different order fixes its counts up
                    # instead of diverging on the source check.
                    outcome = self.node.metadata.apply_migration(
                        request.sender, request.source_zone,
                        request.dest_zone,
                        adopt_source=adopt or commuting)
                    if commuting and outcome.accepted:
                        self._client_exec_ts[request.sender] = \
                            request.timestamp
                # ``source`` is the request's claim, the same on every
                # node: a destination cluster's regional record of where
                # the client was may be stale by design (§VI). Only
                # commuting execution, which can skip a request as
                # superseded, reports why it applied or not.
                extra = {"reason": outcome.reason} if commuting else {}
                obs.emit(self.node.sim.now, "migration.executed",
                         node=self.node.node_id,
                         ballot=ballot.key,
                         client=request.sender,
                         req_ts=request.timestamp,
                         source=request.source_zone,
                         dest=request.dest_zone,
                         accepted=bool(outcome.accepted), **extra)
                results[request.sender] = outcome.as_result()
                self.node.on_global_executed(ballot, request, outcome)
            else:
                # Generic globally-ordered operation on fully replicated
                # data (how the Steward baseline processes *every* txn).
                results[request.sender] = self.node.app.execute(
                    operation, request.sender)
                self.node.occupy(self.node.cost_model.execution_time(1))
            if is_initiator:
                self._answer_executed(request, results[request.sender])
            self.migrations_executed += 1
        self.node.migration.on_ballot_executed(ballot, txn.batch)
        self._let_go(txn)
        for waiting in self.pending_commits.pop(ballot, []):
            self._try_execute(waiting)

    def _let_go(self, txn: GlobalTxnState) -> None:
        """The ballot executed here: what only its way there needed goes.

        The endorsement instances of its phases shrink to what a late
        message can ask of them (:meth:`EndorsementManager.retire`). The
        zone votes banked for it go too — unless this node is itself
        still driving the ballot towards a COMMIT of its own (it executed
        the COMMIT a newer primary sent, or a peer's answer to a query):
        that COMMIT is built from them, and ``_send_commit`` lets them
        go. What is left is what a late message is answered from: the
        batch, the chain link and ``commit_env`` (RESPONSE-QUERY, windowed
        by ``_COMMIT_HISTORY``), and the flags.
        """
        retire = self.node.endorsement.retire
        key = txn.ballot.key
        for kind in (_INITIATOR_ROUNDS
                     if txn.ballot.zone_id == self.my_zone.zone_id
                     else _FOLLOWER_ROUNDS):
            retire(f"{kind}/{key}")
        if txn.phase not in _DRIVING:
            self._release_votes(txn)

    @staticmethod
    def _release_votes(txn: GlobalTxnState) -> None:
        txn.promises = txn.accepteds = None

    # ------------------------------------------------------------------
    # Timers / failure handling (paper §V-A)
    # ------------------------------------------------------------------
    def _watch(self, instance: str) -> None:
        """A backup expects its primary to finish the round ``instance``:
        a follower zone's PROMISE or ACCEPTED, or the initiator zone's
        ACCEPT or COMMIT it validated. Each round is watched on its own
        (DESIGN.md §6.5)."""
        self.node.endorsement.watch(instance, self.config.watch_timeout_ms,
                                    self.node.replica.judged_view)

    def _arm_deadline(self, txn: GlobalTxnState, phase: str) -> None:
        """Arm the ballot's one deadline. A follower-zone node that
        accepted, and an initiator-zone node that banked a ballot held
        for its CROSS-COMMIT, wait ``commit_timeout_ms`` for the COMMIT
        (``_COMMIT_WAIT``) and keep a deadline already pending; the
        initiator primary waits ``phase_timeout_ms`` plus a random
        back-off for ``phase`` to complete, each phase replacing the
        last, until its ballot is held."""
        if phase == _COMMIT_WAIT:
            if txn.deadline is not None or txn.committed:
                return
            timeout = self.config.commit_timeout_ms
        else:
            self._disarm(txn)
            timeout = self.config.phase_timeout_ms + self._rng.uniform(
                0.0, self.config.phase_timeout_ms / 2)
        txn.deadline = self.node.set_timer(timeout, self._on_deadline,
                                           txn.ballot, phase)

    @staticmethod
    def _disarm(txn: GlobalTxnState) -> None:
        if txn.deadline is not None:
            txn.deadline.cancel()
            txn.deadline = None

    def _on_deadline(self, ballot: Ballot, phase: str) -> None:
        """Stall recovery (paper §V-A).

        A node still without the COMMIT it waits for — a follower zone's,
        or the CROSS-COMMIT of a held ballot — asks the initiator zone for
        it and waits again. The initiator primary re-drives a
        stalled ACCEPT or COMMIT round and, with a stable leader (no rival
        ballots), a ballot short of ACCEPTEDs: the finished ACCEPT hands
        its certificate over at once and goes out again — classic Paxos
        retransmission, which keeps the chain across partitions. In
        leaderless mode a timeout usually means a rival ballot won at the
        followers, so the request is re-proposed under a fresh, higher
        ballot (randomised back-off, §V-C) and the chain rolled back.
        """
        txn = self.txns.get(ballot)
        if txn is None:
            return
        txn.deadline = None
        if txn.committed:
            return
        if phase == _COMMIT_WAIT:
            self._query_zone(ballot.zone_id, ballot)
            self._arm_deadline(txn, phase)
            return
        if txn.phase != phase or not self._is_zone_primary():
            return
        if phase in ("accept", "commit") or \
                phase == "accepted-wait" and self.config.stable_leader:
            # The ACCEPT- or COMMIT-body endorsement never certified
            # (pre-prepare or prepares lost, or members held a crashed
            # primary's rival assignment until our newer view overrode
            # it), or the ACCEPTEDs were lost. This ballot may already be
            # referenced as prev by committed successors, so it cannot be
            # abandoned — keep re-driving it.
            self._redrive_initiator(txn)
            return
        for env in txn.batch:
            self.request_dedup.pop(env.payload.key, None)
        txn.phase = "superseded"
        # The one rollback rule: nothing chains to a superseded ballot.
        if self.last_accepted == txn.ballot:
            self.last_accepted = txn.prev_ballot
        self.start_global_txn(txn.batch)

    def _query_zone(self, zone_id: str, ballot: Ballot) -> None:
        """Ask the members of ``zone_id`` for the COMMIT of ``ballot``."""
        if zone_id:
            query = ResponseQuery(view=self.node.replica.view, ballot=ballot,
                                  phase="commit", sender=self.node.node_id)
            self.node.multicast_signed(self.directory.zone(zone_id).members,
                                       query)

    def _on_response_query(self, sender: str, query: ResponseQuery,
                           envelope: Signed) -> None:
        if not self.directory.is_member(sender):
            return  # no zone to answer, nor to judge a primary for
        # §V-A: log every query; rate-limit senders that abuse the
        # resend path as a denial-of-service amplification vector.
        if not self.node.query_audit.record(sender, self.node.sim.now):
            return
        if query.phase == "state":
            self.node.migration.answer_state_query(sender, query)
            return
        # Any other query asks for the COMMIT.
        if self._ship_commits(sender, query.ballot):
            return
        # Log the query; 2f+1 distinct queriers from one zone (with no
        # newer accepted ballot in between) point at our own primary —
        # once it has had a watch timeout to re-drive what it took over.
        if self.last_accepted > query.ballot or self.node.sim.now \
                < self._view_since + self.config.watch_timeout_ms:
            return
        senders = self._query_log.setdefault(query.ballot, set())  # lint: allow[taint-flow] query audit log: senders are zone members rate-limited by QueryAudit above, and entries only feed the faulty-primary detector
        senders.add(sender)
        querier_zone = self.directory.zone_of(sender)
        quorum = self.directory.zone(querier_zone).quorum
        zone_senders = [s for s in senders
                        if self.directory.zone_of(s) == querier_zone]
        if len(zone_senders) >= quorum:
            self._query_log.pop(query.ballot, None)
            self.node.replica.view_changes.suspect(self.node.replica.view)

    def _ship_commits(self, dst: str, ballot: Ballot) -> bool:
        """Send ``dst`` the COMMIT of ``ballot`` and the committed suffix
        held after it — one round trip heals a gap a crash or partition
        left — or return ``False``: this node holds no such COMMIT."""
        txn = self.txns.get(ballot)
        if txn is None or txn.commit_env is None:
            return False
        # Every ballot of ``_commit_order`` keeps its COMMIT; one that
        # left the window and kept it (not executed yet) goes alone.
        order = self._commit_order
        suffix = order[order.index(ballot):][:64] if ballot in order \
            else [ballot]
        for later in suffix:
            self.node.forward(dst, self.txns[later].commit_env)
        return True

    # ------------------------------------------------------------------
    # Local view change: the new primary re-drives in-flight transactions
    # ------------------------------------------------------------------
    def _on_local_view_change(self) -> None:
        # Queries logged against the old primary judge nobody now, nor
        # those still on their way.
        self._query_log.clear()
        self._view_since = self.node.sim.now
        if self._batch_buffer:
            self._flush_batch()
        if not self._is_zone_primary():
            return
        for txn in list(self.txns.values()):
            if txn.committed or not txn.batch:
                continue
            if txn.ballot.zone_id == self.my_zone.zone_id:
                self.node.obs.emit(self.node.sim.now, "sync.redrive",
                                   node=self.node.node_id,
                                   ballot=txn.ballot.key, phase=txn.phase)
                self._redrive_initiator(txn)
            else:
                self._redrive_follower(txn)

    def _redrive_initiator(self, txn: GlobalTxnState) -> None:
        if txn.phase == "superseded":
            return
        # A follower taking over mid-ballot has no phase history — the old
        # primary's progress lives in hard evidence banked on every zone
        # member: ACCEPTED certificates (multicast zone-wide) and the
        # validated accept-endorsement instance. Reconstruct from those
        # first; the local phase only describes this node's own attempts.
        if txn.batch and len(txn.accepteds) + 1 >= self.majority:
            self._start_commit_phase(txn)
            return
        accept_instance = self._instance("accept", txn.ballot)
        if self.node.endorsement.has_instance(accept_instance):
            # Re-certify the SAME accept body. Assigning a fresh
            # prev_ballot here would fork the execution chain behind
            # successors that already committed against the original one.
            # Arm the deadline first: the lead may complete
            # synchronously from banked shares, and _send_accept then
            # re-arms it for the accepted-wait phase.
            txn.phase = "accept"
            self._arm_deadline(txn, "accept")
            self.node.endorsement.relead(
                accept_instance,
                use_prepare=self._use_prepare(
                    assigning_ballot=self.config.stable_leader),
                on_cert=lambda cert, b=txn.ballot: self._send_accept(b, cert))
            return
        if txn.phase in ("start", "propose", "promise-wait") and \
                not self.config.stable_leader:
            self._start_propose_phase(txn)
        elif txn.phase in ("start", "accept", "promise-wait",
                           "accepted-wait"):  # no majority of ACCEPTEDs yet
            self._start_accept_phase(txn, promises=tuple(txn.promises.values()))
        elif txn.phase in ("commit", "commit-sent"):
            self._start_commit_phase(txn)

    def _relead_accepted(self, ballot: Ballot) -> bool:
        """Re-run (or instantly re-certify) this zone's ACCEPTED
        endorsement and re-send the result to the initiator zone.

        Only the zone primary acts; with the quorum shares already banked
        the endorsement completes synchronously, so this doubles as the
        retransmission path for ACCEPTED messages lost to partitions or
        to a crashed initiator primary.
        """
        return self._is_zone_primary() and self.node.endorsement.relead(
            self._instance("accepted", ballot),
            use_prepare=self._use_prepare(False),
            on_cert=lambda cert, b=ballot: self._send_accepted(b, cert))

    def _redrive_follower(self, txn: GlobalTxnState) -> None:
        # Re-run whichever follower endorsement the old primary dropped.
        if txn.phase == "accepted" or self._relead_accepted(txn.ballot):
            return
        self.node.endorsement.relead(
            self._instance("promise", txn.ballot),
            use_prepare=self._use_prepare(False),
            on_cert=lambda cert, b=txn.ballot: self._send_promise(b, cert))
