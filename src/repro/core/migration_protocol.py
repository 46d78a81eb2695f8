"""Data migration protocol (Algorithm 2).

After the data synchronization protocol commits a migration, the source
zone's primary generates the client state ``R(c)``, certifies it with an
intra-zone endorsement (pre-prepare / prepare / local-state), and ships it
to the destination zone in a STATE message. The destination zone endorses
the received state (pre-prepare / local-commit, no prepare round); once a
node holds the zone's certificate of ``2f+1`` votes it sets ``lock(c) =
TRUE``, appends ``R(c)`` to its database, and replies to the client.

A global ballot commits a *batch* of migrations, and the protocol runs
once per **group**: the migrations one executed ballot moves from one
source zone to one destination zone, in client-id order. One endorsement
certifies the group's records — the ballot and each member's ``(client,
digest(R(c)))`` — one STATE carries them, and on one append quorum every
destination node applies each member and answers each client. A group of
one is the single migration of the paper. What is kept per migration
(the captured ``R(c)``, whether it was applied) is keyed by ``(ballot,
client)``; what ships it (the STATE, its timers, a STATE parked ahead of
its commit) by group.

Failure handling mirrors §V-A: destination nodes that executed the commit
but never receive STATE query the source zone, naming one member; source
nodes answer with the group's STATE envelope or come to suspect their own
primary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.crypto.digest import digest
from repro.messages.base import Signed, sign_message
from repro.messages.client import MigrationRequest
from repro.messages.migration import (Members, StateTransfer, state_body,
                                      state_members)
from repro.messages.query import ResponseQuery
from repro.messages.sync import Ballot
from repro.messages.trace import trace_id

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import ZiziphusNode

__all__ = ["MigrationConfig", "MigrationEngine"]

#: One migration within one committed ballot.
MigKey = tuple[Ballot, str]
#: One group: the migrations a ballot moves from a source to a destination.
Group = tuple[Ballot, str, str]


@dataclass
class MigrationConfig:
    """Tunables for the data migration protocol."""

    #: Destination-side timeout waiting for STATE after the global commit.
    state_timeout_ms: float = 4_000.0
    #: Non-primary timeout waiting for the primary to start an endorsement.
    watch_timeout_ms: float = 2_000.0


@dataclass(frozen=True)
class StateContext:
    """Endorsed by the source zone before STATE goes out: the records of
    the group ``ballot`` moves to ``dest``, by client.

    ``records`` is excluded from the context digest; integrity flows
    through the endorsed body, whose member digests validators recompute.
    """

    ballot: Ballot
    dest: str
    clients: tuple[str, ...]
    records: dict[str, dict[str, Any]] = field(compare=False,
                                               metadata={"digest": False})


class MigrationEngine:
    """Runs Algorithm 2 for one node."""

    def __init__(self, node: "ZiziphusNode",
                 config: MigrationConfig | None = None) -> None:
        self.node = node
        self.directory = node.directory
        self.config = config or MigrationConfig()
        self.my_zone = node.zone_info

        #: Each group's clients, in client-id order, on the nodes of its
        #: source and destination zones.
        self._members: dict[Group, tuple[str, ...]] = {}
        #: The STATE a source primary shipped, re-sent on a query.
        self._state_envs: dict[Group, Signed] = {}
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
        #: STATEs that raced ahead of their commit, by ballot and clients
        #: (which group they claim to be is known once it executes).
        self._buffered_states: dict[tuple[Ballot, tuple[str, ...]],
                                    tuple[str, StateTransfer, Signed]] = {}
        self._state_timers: dict[Group, Any] = {}
        #: The executing ballot's members so far, by (source, destination).
        self._forming: dict[tuple[str, str], list[str]] = {}
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

    # ------------------------------------------------------------------
    # Hooks from the sync engine (called on every node during execution)
    # ------------------------------------------------------------------
    def on_migration_committed(self, ballot: Ballot,
                               request: MigrationRequest) -> None:
        """One migration of the ballot executing here joins its group.

        Called for an accepted migration and for one this node
        *superseded* (commuting execution, DESIGN.md §11.3: a newer move
        of the client applied here first). A superseded member stays a
        member, captured, endorsed and applied like the rest: the ballot
        carried it and another honest node applied it, and a group without
        it here but with it there would fail the other's per-member checks
        — one member's interleaving would wedge all of its group-mates.
        """
        source, dest = request.source_zone, request.dest_zone
        if self.my_zone.zone_id == source:
            key = (self._canonical(ballot), request.sender)
            if key not in self._captured_records:
                self._captured_records[key] = \
                    self.node.app.export_client(request.sender)
        elif self.my_zone.zone_id != dest:
            return
        self._forming.setdefault((source, dest), []).append(request.sender)

    def on_ballot_executed(self, ballot: Ballot) -> None:
        """Every request of ``ballot`` executed here: act on its groups,
        per this node's role in each."""
        forming, self._forming = self._forming, {}
        ballot = self._canonical(ballot)
        for (source, dest), clients in sorted(forming.items()):
            group = (ballot, source, dest)
            self._members[group] = tuple(sorted(clients))
            if self.my_zone.zone_id == dest:
                self._await_state(group)
            elif self.node.replica.is_primary:
                self.start_record_generation(group)
            else:
                self._watch(self._instance("state", *group))

    # ------------------------------------------------------------------
    # Record generation (source zone)
    # ------------------------------------------------------------------
    @staticmethod
    def _group_key(ballot: Ballot, source: str, dest: str) -> str:
        return f"{ballot.key}/{source}>{dest}"

    def _instance(self, stage: str, ballot: Ballot, source: str,
                  dest: str) -> str:
        return f"mig-{stage}/{self._group_key(ballot, source, dest)}"

    @staticmethod
    def _span_key(ballot: Ballot, client_id: str) -> str:
        return f"{ballot.key}/{client_id}"

    def _open_spans(self, phase: str, group: Group) -> None:
        """One ``phase`` span per member; on causal runs they carry the
        group key the group's ``trace.link`` is filed under."""
        ballot, source, dest = group
        obs = self.node.obs
        extra = {"grp": self._group_key(*group)} if obs.causal else {}
        for client in self._members[group]:
            obs.span_open(self.node.sim.now, phase,
                          self._span_key(ballot, client),
                          node=self.node.node_id, source=source, dest=dest,
                          **extra)

    def start_record_generation(self, group: Group) -> None:
        """Source primary: extract the group's R(c), endorse them, ship
        them (lines 9-17)."""
        ballot, _, dest = group
        clients = self._members[group]
        obs = self.node.obs
        obs.count("migration.state_led")
        self._open_spans("migration-state", group)
        if obs.causal:
            # One link covers the group's whole migration leg: its
            # members' migration-state / migration-copy spans carry the
            # key as ``grp``, its mig-* endorse instances embed it.
            obs.emit(self.node.sim.now, "trace.link",
                     node=self.node.node_id, scope="migration",
                     key=self._group_key(*group),
                     traces=[trace_id(self._request_of(ballot, client))
                             for client in clients])
        records = {}
        for client in clients:
            captured = self._captured_records.get((ballot, client))
            if captured is None:
                # No capture means this node learned of the migration
                # through a re-query rather than by executing the commit;
                # the live store is the only source available.
                captured = self._captured_records[(ballot, client)] = \
                    self.node.app.export_client(client)
            records[client] = captured
        members = state_members(clients, records)
        context = StateContext(ballot=ballot, dest=dest, clients=clients,
                               records=records)
        self.node.endorsement.lead(
            self._instance("state", *group), context,
            state_body(ballot, members), use_prepare=True,
            on_cert=lambda cert, g=group, r=records, m=members:
            self._send_state(g, r, m, cert))

    def _send_state(self, group: Group, records: dict[str, Any],
                    members: Members, cert) -> None:
        # Ship exactly the snapshot the zone endorsed: the live store may
        # have drifted (e.g. an incoming transfer) since the export, and
        # the certificate binds the endorsed digests.
        ballot, _, dest = group
        state = StateTransfer(view=self.node.replica.view, ballot=ballot,
                              clients=self._members[group], records=records,
                              cert=cert, sender=self.node.node_id)
        env = sign_message(self.node.keys, self.node.node_id, state)
        self._state_envs[group] = env
        obs = self.node.obs
        now = self.node.sim.now
        for client, records_digest in members:
            obs.span_close(now, "migration-state",
                           self._span_key(ballot, client),
                           node=self.node.node_id,
                           records=len(records[client]))
            obs.emit(now, "migration.state_sent",
                     node=self.node.node_id, client=client, dest=dest,
                     records=len(records[client]), ballot=ballot.key,
                     records_digest=records_digest.hex())
        for dst in self.directory.zone(dest).members:
            self.node.forward(dst, env)

    def _validate_state_ctx(self, instance: str, context: Any,
                            endorse_digest: bytes) -> Any:
        if not isinstance(context, StateContext):
            return False
        ballot = self._canonical(context.ballot)
        if ballot not in self.node.sync.executed_results:
            return "retry"  # the global commit may still be executing here
        # Per member: executed here in that ballot as a migration from
        # this zone to that destination — and none of them left out.
        group = (ballot, self.my_zone.zone_id, context.dest)
        if self._members.get(group) != context.clients:
            return False
        members = state_members(context.clients, context.records)
        if members is None or \
                endorse_digest != state_body(context.ballot, members):
            return False
        # The first endorsed export becomes the zone-canonical R(c):
        # replicas capture at slightly different local interleaving
        # points, so a validator adopts the primary's endorsed records —
        # then a later primary re-driving this migration (view change,
        # destination re-query) ships the identical record instead of a
        # near-miss of its own that the monitor would flag as divergent.
        for client in context.clients:
            self._captured_records[(ballot, client)] = context.records[client]
        return True

    def _on_state_quorum(self, instance: str, context: Any, cert) -> None:
        """The group's R(c) are certified: all a source-zone node does for
        them as a backup, and on the primary ``_send_state`` has just
        shipped them."""
        self.node.endorsement.retire(instance)

    # ------------------------------------------------------------------
    # Record appending (destination zone)
    # ------------------------------------------------------------------
    def _await_state(self, group: Group) -> None:
        self._open_spans("migration-copy", group)
        self._arm_state_timer(group)
        buffered = self._buffered_states.pop((group[0], self._members[group]),
                                             None)
        if buffered is not None:
            self._on_state(*buffered)

    def _inbound(self, ballot: Ballot, clients: tuple[str, ...]) \
            -> Group | None:
        """The group ``ballot`` moves into this zone whose members are
        exactly ``clients`` (a well-shaped tuple), if it executed here."""
        request = self._request_of(ballot, clients[0])
        if request is None:
            return None
        group = (ballot, request.source_zone, self.my_zone.zone_id)
        return group if self._members.get(group) == clients else None

    def _on_state(self, sender: str, state: StateTransfer,
                  envelope: Signed) -> None:
        members = state_members(state.clients, state.records)
        if members is None:
            self.node.refuse(sender, state)  # ill-shaped
            return
        ballot = self._canonical(state.ballot)
        if all((ballot, client) in self._applied for client in state.clients):
            return
        if ballot not in self.node.sync.executed_results:
            # STATE raced ahead of the global commit; park it.
            self._buffered_states[(ballot, state.clients)] = \
                (sender, state, envelope)
            return
        group = self._inbound(ballot, state.clients)
        if group is None:
            # Not a group this zone committed in that ballot: a member
            # missing, one too many, or one moving somewhere else.
            self.node.refuse(sender, state)
            return
        _, source, dest = group
        body = state_body(state.ballot, members)
        if not self.node.check_cert("state", source, state.cert, body,
                                    sender, self._group_key(*group)):
            return
        instance = self._instance("append", state.ballot, source, dest)
        if self.node.replica.is_primary:
            self.node.endorsement.lead(
                instance, state, body, use_prepare=False,
                on_cert=lambda cert: None)
        else:
            self._watch(instance)

    def _validate_append_ctx(self, instance: str, context: Any,
                             endorse_digest: bytes) -> Any:
        if not isinstance(context, StateTransfer):
            return False
        ballot = self._canonical(context.ballot)
        if ballot not in self.node.sync.executed_results:
            return "retry"  # the global commit may still be executing here
        members = state_members(context.clients, context.records)
        if members is None:
            return False
        group = self._inbound(ballot, context.clients)
        if group is None:
            return False
        body = state_body(context.ballot, members)
        if endorse_digest != body:
            return False
        return self.directory.cert_valid(context.cert, body, group[1])

    def _on_append_quorum(self, instance: str, context: Any, cert) -> None:
        """Lines 22-25: every destination node appends each member on the
        zone's certificate (the context was validated here, or led from
        here)."""
        if not isinstance(context, StateTransfer):
            return
        self.node.endorsement.retire(instance)
        ballot = self._canonical(context.ballot)
        self._cancel_state_timer(self._inbound(ballot, context.clients))
        obs = self.node.obs
        now = self.node.sim.now
        for client, records_digest in state_members(context.clients,
                                                    context.records):
            key = (ballot, client)
            if key in self._applied:
                continue
            self._applied.add(key)
            records = context.records[client]
            obs.count("migration.applied")
            obs.span_close(now, "migration-copy",
                           self._span_key(ballot, client),
                           node=self.node.node_id, records=len(records))
            obs.emit(now, "migration.applied",
                     node=self.node.node_id, client=client,
                     ballot=context.ballot.key, records=len(records),
                     records_digest=records_digest.hex())
            self.node.app.import_client(client, records)
            self.node.locks.mark_current(client)
            self.node.reads.on_arrived(client)
            self.migrations_applied += 1
            request = self._request_of(ballot, client)
            if request is not None:
                self.node.reply_to_client(
                    request, ("migrated", "ok", request.dest_zone))

    def _request_of(self, ballot: Ballot,
                    client_id: str) -> MigrationRequest | None:
        """The request of ``client_id`` in the (canonical) ``ballot``."""
        txn = self.node.sync.txns.get(ballot)
        if txn is not None:
            for env in txn.batch:
                if env.payload.sender == client_id:
                    return env.payload
        return None

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _watch(self, instance: str) -> None:
        self.node.endorsement.watch(instance, self.config.watch_timeout_ms,
                                    self.node.replica.judged_view)

    def _arm_state_timer(self, group: Group) -> None:
        if group in self._state_timers:
            return
        timer = self.node.set_timer(self.config.state_timeout_ms,
                                    self._on_state_timeout, group)
        self._state_timers[group] = timer

    def _cancel_state_timer(self, group: Group | None) -> None:
        timer = self._state_timers.pop(group, None)
        if timer is not None:
            timer.cancel()

    def _on_state_timeout(self, group: Group) -> None:
        self._state_timers.pop(group, None)
        ballot, source, _ = group
        clients = self._members[group]
        if all((ballot, client) in self._applied for client in clients):
            return
        query = ResponseQuery(view=self.node.replica.view, ballot=ballot,
                              request_digest=digest(clients[0]),
                              phase="state", zone_id=self.my_zone.zone_id,
                              sender=self.node.node_id)
        self.node.multicast_signed(self.directory.zone(source).members,
                                   query)
        self._arm_state_timer(group)

    def answer_state_query(self, sender: str, query: ResponseQuery) -> None:
        """Source-side response to a STATE query naming one member: re-send
        the group's STATE, or lead it if this node is (now) the primary."""
        ballot = self._canonical(query.ballot)
        results = self.node.sync.executed_results.get(ballot)
        if results is None:
            # Not executed here yet: exporting now would certify a
            # pre-commit-point R(c). The destination's timer will re-query
            # once we catch up.
            return
        client = next((c for c in results
                       if digest(c) == query.request_digest), None)
        request = None if client is None else self._request_of(ballot, client)
        if request is None:
            return
        group = (ballot, self.my_zone.zone_id, request.dest_zone)
        if group not in self._members:
            return
        env = self._state_envs.get(group)
        if env is not None:
            self.node.forward(sender, env)
        elif self.node.replica.is_primary:
            # We executed the commit but our primary never shipped the
            # state: nudge record generation now that we are the primary.
            self.start_record_generation(group)
