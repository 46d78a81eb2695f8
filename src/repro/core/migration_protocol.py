"""Data migration protocol (Algorithm 2).

Once the source zone has accepted a global ballot that moves a client
away (Algorithm 1's ACCEPT / ACCEPTED round), the client's lock is
FALSE there and nothing the zone would ship can change any more. The
source zone's primary then generates the client state ``R(c)``,
certifies it with an intra-zone endorsement (pre-prepare / prepare /
local-state), and ships it to the destination zone in a STATE message,
while the ballot is still on its way to its commit. The destination zone
parks a STATE until it has executed the ballot, then endorses it
(pre-prepare / local-commit, no prepare round); once a node holds the
zone's certificate of ``2f+1`` votes it sets ``lock(c) = TRUE``, appends
``R(c)`` to its database, and replies to the client.

A global ballot orders a *batch* of migrations, and the protocol runs
once per **group**: the migrations the ballot's requests name from one
source zone to one destination zone, in client-id order. One endorsement
certifies the group's records — the ballot and each member's ``(client,
digest(R(c)))`` — one STATE carries them, and on one append quorum every
destination node applies each member its own execution let through and
answers its client. A group of one is the single migration of the
paper. What is kept per migration (the endorsed ``R(c)``, whether it was
applied) is keyed by ``(ballot, client)``; what ships it (the STATE, its
timers, a STATE parked ahead of its commit) by group.

Failure handling follows §V-A in part: destination nodes that executed
the commit but never receive STATE query the source zone, naming one
member. A source node that holds the group's STATE envelope re-sends it,
and one that is the primary and holds none leads it now. The others do
not answer, and a STATE query never makes them suspect their primary, so
a source primary that relays nothing stalls the group (ROADMAP D9).
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

#: One migration within one ballot.
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
        #: source zone (from acceptance) and destination zone (from
        #: execution).
        self._members: dict[Group, tuple[str, ...]] = {}
        #: The STATE a source primary shipped, re-sent on a query.
        self._state_envs: dict[Group, Signed] = {}
        #: R(c) as the source zone endorsed it: exported once, by the
        #: primary that led the group's ``mig-state``, and adopted by every
        #: member that validated it. Re-drives (view changes, destination
        #: re-queries) must ship THIS snapshot: the live store moves on —
        #: the client may even migrate back and transact here again — and
        #: a later export would certify a different state for the same
        #: migration.
        self._captured_records: dict[MigKey, dict[str, Any]] = {}
        #: Cross-cluster: the source cluster ships STATE under *its* ballot;
        #: destination nodes map it back to their own cluster's ballot.
        self._aliases: dict[Ballot, Ballot] = {}
        #: Each inbound group's members this node's execution admitted
        #: and that it has not applied yet; the append quorum empties it.
        self._waiting: dict[Group, tuple[str, ...]] = {}
        #: STATEs ahead of their ballot's execution here, by ballot and
        #: clients (which group they claim to be is known once it
        #: executes), with their sender and member digests.
        self._buffered_states: dict[tuple[Ballot, tuple[str, ...]],
                                    tuple[str, StateTransfer, Members]] = {}
        #: The member digests of the STATE a destination node verified for
        #: a group, computed once and read again at its append quorum.
        self._verified: dict[Group, tuple[StateTransfer, Members]] = {}
        self._state_timers: dict[Group, Any] = {}
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
    # Hooks from the sync engine: a group forms where its zone accepts
    # ------------------------------------------------------------------
    def on_ballot_accepted(self, ballot: Ballot,
                           batch: tuple[Signed, ...]) -> None:
        """This node accepted ``ballot`` (Algorithm 1's ACCEPT round in the
        initiator zone, ACCEPTED in a follower zone) and has locked the
        clients it moves away: the groups leaving this zone form now, and
        the primary ships them while the ballot goes on to its commit."""
        self._form(self._canonical(ballot), batch, executed=False)

    def on_ballot_executed(self, ballot: Ballot,
                           batch: tuple[Signed, ...]) -> None:
        """Every request of ``ballot`` executed here: the groups entering
        this zone form, and so do those leaving it on a node that never
        accepted the ballot (it caught up through the COMMIT)."""
        self._form(self._canonical(ballot), batch, executed=True)

    def _form(self, ballot: Ballot, batch: tuple[Signed, ...],
              executed: bool) -> None:
        """Fix the groups of ``batch`` leaving this zone — and, once the
        ballot ``executed`` here, those entering it — and act on each per
        this node's role. Membership is what the requests name, not what
        execution makes of them, which a source zone cannot know at
        acceptance, so every node of both zones computes the same groups.
        A group already formed here is left alone."""
        me = self.my_zone.zone_id
        pairs: dict[tuple[str, str], list[str]] = {}
        for env in batch:
            request = env.payload
            if (request.source_zone == me
                    or executed and request.dest_zone == me) \
                    and request.source_zone != request.dest_zone \
                    and request.operation \
                    and request.operation[0] == "migrate":
                pairs.setdefault((request.source_zone, request.dest_zone),
                                 []).append(request.sender)
        if not pairs:
            return
        for (source, dest), clients in sorted(pairs.items()):
            group = (ballot, source, dest)
            members = tuple(sorted(clients))
            if self._members.get(group) == members:
                continue
            self._members[group] = members
            if dest == me:
                self._await_state(group)
                continue
            instance = self._instance("state", *group)
            if self.node.replica.is_primary:
                self.start_record_generation(group)
            else:
                self._watch(instance)
                self.node.endorsement.replay(instance)

    def _let_go_parked(self, ballot: Ballot,
                       clients: tuple[str, ...]) -> None:
        """A parked STATE of another ballot that moves one of ``clients``
        into this zone is let go as ``ballot`` executes (DESIGN.md §10):
        its source zone shipped it on accepting a ballot that, superseded,
        never commits. Should it commit after all, the group's STATE
        timer asks for it again."""
        movers = set(clients)
        for key in [key for key in self._buffered_states
                    if key[0] != ballot and not movers.isdisjoint(key[1])]:
            del self._buffered_states[key]

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

    def _open_spans(self, phase: str, group: Group,
                    clients: tuple[str, ...]) -> None:
        """One ``phase`` span per member of ``clients``; on causal runs
        they carry the group key the group's ``trace.link`` is filed
        under."""
        ballot, source, dest = group
        obs = self.node.obs
        extra = {"grp": self._group_key(*group)} if obs.causal else {}
        for client in clients:
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
        self._open_spans("migration-state", group, clients)
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
                # The zone endorsed none yet: this is the one export.
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
        # Exactly the group this node formed when it accepted the ballot:
        # each member a migration from this zone to that destination in
        # the ballot's batch, and none of them left out.
        clients = self._members.get(
            (ballot, self.my_zone.zone_id, context.dest))
        if clients is None:
            # Not accepted here yet (``_form`` replays the pre-prepare),
            # or, once executed here, no such group.
            return False if ballot in self.node.sync.executed_results \
                else "retry"
        if clients != context.clients:
            return False
        members = state_members(context.clients, context.records)
        if members is None or \
                endorse_digest != state_body(context.ballot, members):
            return False
        # The primary's one export becomes the zone-canonical R(c): a
        # later primary re-driving this migration (view change,
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
        """Inbound ``group`` formed as its ballot executed here: wait for
        the members this node's execution admitted — accepted, or
        superseded by a newer move (commuting execution, DESIGN.md
        §11.3). A member the policies or the source check rejected rides
        in the STATE and is not applied."""
        ballot, clients = group[0], self._members[group]
        if self._buffered_states:
            self._let_go_parked(ballot, clients)
        results = self.node.sync.executed_results[ballot]
        admitted = tuple(client for client in clients
                         if results[client][0] == "migrated"
                         or results[client][1] == "superseded")
        if admitted:
            self._waiting[group] = admitted
            self._open_spans("migration-copy", group, admitted)
            self._arm_state_timer(group)
        buffered = self._buffered_states.pop((ballot, clients), None)
        if buffered is not None:
            self._take_state(*buffered)
        self.node.endorsement.replay(self._instance("append", *group))

    def _inbound(self, ballot: Ballot, clients: Any) -> Group | None:
        """The group ``ballot`` moves into this zone whose members are
        exactly ``clients``, if it executed here."""
        if not isinstance(clients, tuple) or not clients:
            return None
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
        if ballot not in self.node.sync.executed_results:
            # STATE left when the source zone accepted the ballot; this
            # node appends nothing before it has executed it.
            self._buffered_states[(ballot, state.clients)] = \
                (sender, state, members)
            return
        self._take_state(sender, state, members)

    def _take_state(self, sender: str, state: StateTransfer,
                    members: Members) -> None:
        """A well-shaped STATE, whose ``members`` are computed, for a
        ballot executed here."""
        group = self._inbound(self._canonical(state.ballot), state.clients)
        if group is None:
            # Not a group this zone committed in that ballot: a member
            # missing, one too many, or one moving somewhere else.
            self.node.refuse(sender, state)
            return
        if group not in self._waiting:
            return  # applied already, or nothing of it admitted here
        body = state_body(state.ballot, members)
        if not self.node.check_cert("state", group[1], state.cert, body,
                                    sender, self._group_key(*group)):
            return
        self._verified[group] = (state, members)
        instance = self._instance("append", *group)
        if self.node.replica.is_primary:
            self.node.endorsement.lead(
                instance, state, body, use_prepare=False,
                on_cert=lambda cert: None)
        else:
            self._watch(instance)

    def _digests(self, group: Group, state: StateTransfer) -> Members | None:
        """``state_members`` of ``state``: kept from when this node
        verified that very STATE for ``group``, or computed."""
        held = self._verified.get(group)
        if held is not None and held[0] is state:
            return held[1]
        return state_members(state.clients, state.records)

    def _validate_append_ctx(self, instance: str, context: Any,
                             endorse_digest: bytes) -> Any:
        if not isinstance(context, StateTransfer):
            return False
        ballot = self._canonical(context.ballot)
        if ballot not in self.node.sync.executed_results:
            return "retry"  # ``_await_state`` replays the pre-prepare
        group = self._inbound(ballot, context.clients)
        if group is None:
            return False
        members = self._digests(group, context)
        if members is None:
            return False
        body = state_body(context.ballot, members)
        if endorse_digest != body:
            return False
        return self.directory.cert_valid(context.cert, body, group[1])

    def _on_append_quorum(self, instance: str, context: Any, cert) -> None:
        """Lines 22-25: every destination node appends each member its
        execution admitted, on the zone's certificate (the context was
        validated here, or led from here)."""
        if not isinstance(context, StateTransfer):
            return
        self.node.endorsement.retire(instance)
        ballot = self._canonical(context.ballot)
        group = self._inbound(ballot, context.clients)
        if group is None:
            return
        self._cancel_state_timer(group)
        digests = dict(self._digests(group, context))
        self._verified.pop(group, None)
        requests = {env.payload.sender: env.payload
                    for env in self.node.sync.txns[ballot].batch}
        obs = self.node.obs
        now = self.node.sim.now
        for client in self._waiting.pop(group, ()):
            records = context.records[client]
            obs.count("migration.applied")
            obs.span_close(now, "migration-copy",
                           self._span_key(ballot, client),
                           node=self.node.node_id, records=len(records))
            obs.emit(now, "migration.applied",
                     node=self.node.node_id, client=client,
                     ballot=context.ballot.key, records=len(records),
                     records_digest=digests[client].hex())
            self.node.app.import_client(client, records)
            self.node.locks.mark_current(client)
            self.node.reads.on_arrived(client)
            self.migrations_applied += 1
            request = requests[client]
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
        pending = self._waiting.get(group)
        if not pending:
            return
        query = ResponseQuery(view=self.node.replica.view, ballot=ballot,
                              request_digest=digest(pending[0]),
                              phase="state", zone_id=self.my_zone.zone_id,
                              sender=self.node.node_id)
        self.node.multicast_signed(self.directory.zone(source).members,
                                   query)
        self._arm_state_timer(group)

    def answer_state_query(self, sender: str, query: ResponseQuery) -> None:
        """Source-side response to a STATE query naming one member: re-send
        the group's STATE, or lead it if this node is (now) the primary."""
        ballot = self._canonical(query.ballot)
        txn = self.node.sync.txns.get(ballot)
        request = None if txn is None else next(
            (env.payload for env in txn.batch
             if digest(env.payload.sender) == query.request_digest), None)
        if request is None:
            return
        group = (ballot, self.my_zone.zone_id, request.dest_zone)
        if group not in self._members:
            # Not accepted here yet: R(c) may still change. The
            # destination's timer will re-query once we catch up.
            return
        env = self._state_envs.get(group)
        if env is not None:
            self.node.forward(sender, env)
        elif self.node.replica.is_primary:
            # Our zone accepted the ballot but our primary never shipped
            # the state: lead it now that we are the primary.
            self.start_record_generation(group)
