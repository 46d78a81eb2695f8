"""Data migration protocol (Algorithm 2).

After the data synchronization protocol commits a migration, the source
zone's primary generates the client state ``R(c)``, certifies it with an
intra-zone endorsement (pre-prepare / prepare / local-state), and ships it
to the destination zone in a STATE message. The destination zone endorses
the received state (pre-prepare / local-commit, no prepare round); once a
node sees the ``2f+1`` vote quorum it sets ``lock(c) = TRUE``, appends
``R(c)`` to its database, and replies to the client.

A global ballot may commit a *batch* of migrations, so protocol state here
is keyed by ``(ballot, client)``.

Failure handling mirrors §V-A: destination nodes that executed the commit
but never receive STATE query the source zone; source nodes answer with
the stored STATE envelope or come to suspect their own primary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.crypto.digest import digest
from repro.messages.base import Signed, sign_message
from repro.messages.client import MigrationRequest
from repro.messages.migration import StateTransfer, state_body
from repro.messages.query import ResponseQuery
from repro.messages.sync import Ballot
from repro.messages.trace import trace_id

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import ZiziphusNode

__all__ = ["MigrationConfig", "MigrationEngine"]

#: Protocol state key: one migration within one committed ballot.
MigKey = tuple[Ballot, str]


@dataclass
class MigrationConfig:
    """Tunables for the data migration protocol."""

    #: Destination-side timeout waiting for STATE after the global commit.
    state_timeout_ms: float = 4_000.0
    #: Non-primary timeout waiting for the primary to start an endorsement.
    watch_timeout_ms: float = 2_000.0


@dataclass(frozen=True)
class StateContext:
    """Endorsed by the source zone before STATE goes out.

    ``records`` is excluded from the context digest; integrity flows
    through ``records_digest``, which validators recompute.
    """

    ballot: Ballot
    client_id: str
    records: dict[str, Any] = field(compare=False, metadata={"digest": False})
    records_digest: bytes = b""


class MigrationEngine:
    """Runs Algorithm 2 for one node."""

    def __init__(self, node: "ZiziphusNode",
                 config: MigrationConfig | None = None) -> None:
        self.node = node
        self.directory = node.directory
        self.config = config or MigrationConfig()
        self.my_zone = node.zone_info

        self._state_envs: dict[MigKey, Signed] = {}
        self._source_zone_of: dict[MigKey, str] = {}
        #: R(c) as of the migration commit's execution point, captured on
        #: every source-zone node. Re-drives (view changes, destination
        #: re-queries) must ship THIS snapshot: the live store moves on —
        #: the client may even migrate back and transact here again — and
        #: a later export would certify a different state for the same
        #: migration.
        self._captured_records: dict[MigKey, dict[str, Any]] = {}
        #: Cross-cluster: the source cluster ships STATE under *its* ballot;
        #: destination nodes map it back to their own cluster's ballot.
        self._aliases: dict[Ballot, Ballot] = {}
        self._applied: set[MigKey] = set()
        self._buffered_states: dict[MigKey, tuple[str, StateTransfer, Signed]] = {}
        self._state_timers: dict[MigKey, Any] = {}
        self.migrations_applied = 0

        node.register_handler(StateTransfer, self._on_state)
        node.endorsement.register_kind("mig-state",
                                       validator=self._validate_state_ctx,
                                       on_quorum=self._on_state_quorum)
        node.endorsement.register_kind("mig-append",
                                       validator=self._validate_append_ctx,
                                       on_quorum=self._on_append_quorum)

    # ------------------------------------------------------------------
    # Ballot aliasing (cross-cluster)
    # ------------------------------------------------------------------
    def alias_ballot(self, foreign: Ballot, local: Ballot) -> None:
        """Map a peer cluster's ballot onto this cluster's (cross-cluster)."""
        self._aliases[foreign] = local
        # Re-key anything that arrived before the mapping was known.
        for key in [k for k in self._buffered_states if k[0] == foreign]:
            self._buffered_states[(local, key[1])] = \
                self._buffered_states.pop(key)

    def _canonical(self, ballot: Ballot) -> Ballot:
        return self._aliases.get(ballot, ballot)

    def _key(self, ballot: Ballot, client_id: str) -> MigKey:
        return (self._canonical(ballot), client_id)

    # ------------------------------------------------------------------
    # Hooks from the sync engine (called on every node after execution)
    # ------------------------------------------------------------------
    def on_migration_committed(self, ballot: Ballot,
                               request: MigrationRequest) -> None:
        """React to an executed (accepted) migration, per this node's role."""
        key = self._key(ballot, request.sender)
        self._source_zone_of[key] = request.source_zone
        zone_id = self.my_zone.zone_id
        if zone_id == request.source_zone:
            if key not in self._captured_records:
                self._captured_records[key] = \
                    self.node.app.export_client(request.sender)
            if self.node.replica.is_primary:
                self.start_record_generation(ballot, request)
            else:
                self._watch(key, self._instance("state", ballot,
                                                request.sender))
        elif zone_id == request.dest_zone:
            if key not in self._applied:
                self.node.obs.span_open(
                    self.node.sim.now, "migration-copy",
                    self._span_key(*key), node=self.node.node_id,
                    source=request.source_zone, dest=request.dest_zone)
            buffered = self._buffered_states.pop(key, None)
            if buffered is not None:
                self._on_state(*buffered)
            elif key not in self._applied:
                self._arm_state_timer(key)

    # ------------------------------------------------------------------
    # Record generation (source zone)
    # ------------------------------------------------------------------
    def _instance(self, stage: str, ballot: Ballot, client_id: str) -> str:
        return f"mig-{stage}/{ballot.key}/{client_id}"

    @staticmethod
    def _span_key(ballot: Ballot, client_id: str) -> str:
        return f"{ballot.key}/{client_id}"

    def start_record_generation(self, ballot: Ballot,
                                request: MigrationRequest) -> None:
        """Source primary: extract R(c), endorse it, ship it (lines 9-17)."""
        obs = self.node.obs
        obs.count("migration.state_led")
        obs.span_open(self.node.sim.now, "migration-state",
                      self._span_key(ballot, request.sender),
                      node=self.node.node_id,
                      source=request.source_zone, dest=request.dest_zone)
        if obs.causal:
            # One link covers the whole migration leg: the
            # migration-state / migration-copy spans and the
            # mig-* endorse instances all embed this key.
            obs.emit(self.node.sim.now, "trace.link",
                     node=self.node.node_id, scope="migration",
                     key=self._span_key(ballot, request.sender),
                     traces=[trace_id(request)])
        key = self._key(ballot, request.sender)
        records = self._captured_records.get(key)
        if records is None:
            # No capture means this node learned of the migration through a
            # re-query rather than by executing the commit; the live store
            # is the only source available.
            records = self.node.app.export_client(request.sender)
            self._captured_records[key] = records
        records_digest = digest(records)
        context = StateContext(ballot=ballot, client_id=request.sender,
                               records=records, records_digest=records_digest)
        body = state_body(ballot, request.sender, records_digest)
        self.node.endorsement.lead(
            self._instance("state", ballot, request.sender), context, body,
            use_prepare=True,
            on_cert=lambda cert, b=ballot, r=request, rec=records:
            self._send_state(b, r, rec, cert))

    def _send_state(self, ballot: Ballot, request: MigrationRequest,
                    records: dict[str, Any], cert) -> None:
        # Ship exactly the snapshot the zone endorsed: the live store may
        # have drifted (e.g. an incoming transfer) since the export, and
        # the certificate binds the endorsed digest.
        state = StateTransfer(view=self.node.replica.view, ballot=ballot,
                              client_id=request.sender, records=records,
                              records_digest=digest(records), cert=cert,
                              sender=self.node.node_id)
        env = sign_message(self.node.keys, self.node.node_id, state)
        self._state_envs[self._key(ballot, request.sender)] = env
        obs = self.node.obs
        obs.span_close(self.node.sim.now, "migration-state",
                       self._span_key(ballot, request.sender),
                       node=self.node.node_id,
                       records=len(records))
        obs.emit(self.node.sim.now, "migration.state_sent",
                 node=self.node.node_id, client=request.sender,
                 dest=request.dest_zone, records=len(records),
                 ballot=ballot.key,
                 records_digest=state.records_digest.hex())
        dest_nodes = self.directory.zone(request.dest_zone).members
        for dst in dest_nodes:
            self.node.forward(dst, env)

    def _validate_state_ctx(self, instance: str, context: Any,
                            endorse_digest: bytes) -> Any:
        if not isinstance(context, StateContext):
            return False
        if digest(context.records) != context.records_digest:
            return False
        expected = state_body(context.ballot, context.client_id,
                              context.records_digest)
        if endorse_digest != expected:
            return False
        # Only endorse states for migrations this zone committed as source.
        result = self.node.sync.result_for(context.ballot, context.client_id)
        if result is None:
            return "retry"  # the global commit may still be executing here
        if result[0] != "migrated":
            return False
        # The first endorsed export becomes the zone-canonical R(c):
        # replicas capture at slightly different local interleaving
        # points, so a validator adopts the primary's endorsed records —
        # then a later primary re-driving this migration (view change,
        # destination re-query) ships the identical record instead of a
        # near-miss of its own that the monitor would flag as divergent.
        self._captured_records[self._key(context.ballot,
                                         context.client_id)] = context.records
        return True

    def _on_state_quorum(self, instance: str, context: Any, cert) -> None:
        """R(c) is certified: all a source-zone node does for it as a
        backup, and on the primary ``_send_state`` has just shipped it."""
        self.node.endorsement.retire(instance)

    # ------------------------------------------------------------------
    # Record appending (destination zone)
    # ------------------------------------------------------------------
    def _on_state(self, sender: str, state: StateTransfer,
                  envelope: Signed) -> None:
        key = self._key(state.ballot, state.client_id)
        if key in self._applied:
            return
        if digest(state.records) != state.records_digest:
            # Checked *before* parking: a self-inconsistent STATE from a
            # Byzantine sender must not displace a genuine buffered one
            # (the certificate can only be checked after the commit
            # executes, but this digest is verifiable immediately).
            return
        if self.node.sync.result_for(self._canonical(state.ballot),
                                     state.client_id) is None:
            # STATE raced ahead of the global commit; park it.
            self._buffered_states[key] = (sender, state, envelope)
            return
        source_zone = self._source_zone_of.get(key)
        if source_zone is None:
            return
        body = state_body(state.ballot, state.client_id, state.records_digest)
        if not self.node.check_cert(
                "state", source_zone, state.cert, body, sender,
                self._span_key(state.ballot, state.client_id)):
            return
        self._state_envs.setdefault(key, envelope)
        instance = self._instance("append", state.ballot, state.client_id)
        if self.node.replica.is_primary:
            self.node.endorsement.lead(
                instance, state, body, use_prepare=False,
                on_cert=lambda cert: None)
        else:
            self._watch(key, instance)

    def _validate_append_ctx(self, instance: str, context: Any,
                             endorse_digest: bytes) -> Any:
        if not isinstance(context, StateTransfer):
            return False
        ballot = context.ballot
        if self.node.sync.result_for(self._canonical(ballot),
                                     context.client_id) is None:
            return "retry"  # the global commit may still be executing here
        if digest(context.records) != context.records_digest:
            return False
        key = self._key(ballot, context.client_id)
        source_zone = self._source_zone_of.get(key)
        if source_zone is None:
            return False
        body = state_body(ballot, context.client_id, context.records_digest)
        if endorse_digest != body:
            return False
        return self.directory.cert_valid(context.cert, body, source_zone)

    def _on_append_quorum(self, instance: str, context: Any, cert) -> None:
        """Lines 22-25: every destination node appends on the vote quorum."""
        if not isinstance(context, StateTransfer):
            return
        self.node.endorsement.retire(instance)
        key = self._key(context.ballot, context.client_id)
        if key in self._applied:
            return
        self._applied.add(key)
        self._cancel_state_timer(key)
        obs = self.node.obs
        obs.count("migration.applied")
        obs.span_close(self.node.sim.now, "migration-copy",
                       self._span_key(*key), node=self.node.node_id,
                       records=len(context.records))
        obs.emit(self.node.sim.now, "migration.applied",
                 node=self.node.node_id, client=context.client_id,
                 ballot=context.ballot.key,
                 records=len(context.records),
                 records_digest=context.records_digest.hex())
        self.node.app.import_client(context.client_id, context.records)
        self.node.locks.mark_current(context.client_id)
        self.migrations_applied += 1
        request = self._request_of(context.ballot, context.client_id)
        if request is not None:
            self.node.reply_to_client(
                request, ("migrated", "ok", request.dest_zone))

    def _request_of(self, ballot: Ballot,
                    client_id: str) -> MigrationRequest | None:
        for candidate in (self._canonical(ballot), ballot):
            txn = self.node.sync.txns.get(candidate)
            if txn is None:
                continue
            for env in txn.batch:
                if env.payload.sender == client_id:
                    return env.payload
        return None

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _watch(self, key: MigKey, instance: str) -> None:
        self.node.set_timer(self.config.watch_timeout_ms,
                            self._on_watch_expired, key, instance)

    def _on_watch_expired(self, key: MigKey, instance: str) -> None:
        if key not in self._applied:
            self.node.endorsement.primary_overdue(instance)

    def _arm_state_timer(self, key: MigKey) -> None:
        if key in self._state_timers:
            return
        timer = self.node.set_timer(self.config.state_timeout_ms,
                                    self._on_state_timeout, key)
        self._state_timers[key] = timer

    def _cancel_state_timer(self, key: MigKey) -> None:
        timer = self._state_timers.pop(key, None)
        if timer is not None:
            timer.cancel()

    def _on_state_timeout(self, key: MigKey) -> None:
        self._state_timers.pop(key, None)
        if key in self._applied:
            return
        ballot, client_id = key
        query = ResponseQuery(view=self.node.replica.view, ballot=ballot,
                              request_digest=digest(client_id),
                              phase="state", zone_id=self.my_zone.zone_id,
                              sender=self.node.node_id)
        source_nodes = self.directory.zone(self._source_zone_of[key]).members
        self.node.multicast_signed(source_nodes, query)
        self._arm_state_timer(key)

    def answer_state_query(self, sender: str, query: ResponseQuery) -> None:
        """Source-side response to a STATE query (re-send or suspect)."""
        # The query names the client via the request digest; scan our state
        # envelopes for this ballot.
        for key, env in self._state_envs.items():
            ballot, client_id = key
            if ballot == self._canonical(query.ballot) and \
                    digest(client_id) == query.request_digest:
                self.node.forward(sender, env)
                return
        # We executed the commit but our primary never shipped the state:
        # nudge record generation if we are (now) the primary.
        if not self.node.replica.is_primary:
            return
        txn = self.node.sync.txns.get(self._canonical(query.ballot))
        if txn is None:
            return
        for env in txn.batch:
            request = env.payload
            if digest(request.sender) == query.request_digest and \
                    self.my_zone.zone_id == request.source_zone:
                if self.node.sync.result_for(self._canonical(query.ballot),
                                             request.sender) is None:
                    # Not executed here yet: exporting now would certify a
                    # pre-commit-point R(c). The destination's timer will
                    # re-query once we catch up.
                    return
                self.start_record_generation(query.ballot, request)
                return
