"""Consensus engines: the pluggable policy surface of both BFT levels.

Ziziphus runs consensus at two levels — PBFT inside each zone and a
Paxos-style data-sync protocol across zones (§IV/§V). Both levels keep
their *mechanism* (message flows, certificate formats, timers) in
``repro.pbft`` and ``repro.core``. What legitimately varies between
protocol variants at the zone level is only sizing — a
:class:`~repro.consensus.profile.QuorumProfile` factory, carried by the
backend itself; what varies at the global level is factored here into
:class:`GlobalEngine`: who initiates a global ballot, which sequence
numbers a zone may assign, and whether nodes may apply commuting global
transactions in different orders. What a new zone primary does for
in-flight ballots after a local view change is mechanism, the same on
every backend (``SyncEngine._on_local_view_change``).

Engines are *stateless* singletons: all protocol state lives in the
``SyncEngine`` / ``PBFTReplica`` instances they steer, so one engine
object safely serves every node in a deployment. The methods are
duck-typed against those classes (no imports from ``repro.core``), which
keeps this package a leaf of the import graph alongside
:mod:`repro.quorums`.
"""

from __future__ import annotations

from repro.messages.sync import Ballot

__all__ = [
    "GlobalEngine", "StableInitiatorEngine", "RotatingInitiatorEngine",
    "STABLE_INITIATOR", "ROTATING_INITIATOR",
]


class GlobalEngine:
    """Global-level (cross-zone data sync) consensus backend.

    Steers the ``SyncEngine`` of ``repro.core.sync_protocol`` at one
    policy point, ballot/initiator assignment (:meth:`propose`,
    :meth:`initiator_zone`, :meth:`valid_assignment`), and says whether
    nodes may apply its ballots in different orders
    (:attr:`commuting_execution`).
    """

    name = "global"
    level = "global"
    #: True when the engine admits several concurrent initiators, so the
    #: ``prev_ballot`` chains form a tree instead of one line and nodes
    #: may apply commuting global transactions in different interleavings.
    #: The sync engine then switches migration execution to the
    #: order-insensitive discipline (per-client timestamp high-water mark
    #: + certified-source adoption) and the conformance monitor judges
    #: traces under that discipline instead of strict replay equality.
    commuting_execution = False

    def initiator_zone(self, directory, sync_config, zone_id: str) -> str:
        """Which zone of ``zone_id``'s cluster orders a global transaction
        addressed to ``zone_id``: a migration's destination, or one
        cluster's half of a cross-cluster move (``directory`` is a
        ``ZoneDirectory``, ``sync_config`` a ``SyncConfig``)."""
        raise NotImplementedError

    def propose(self, sync, batch) -> Ballot:
        """Pick the ballot for a new batch on ``sync``'s node (called on
        the initiator-zone primary). Must return a ballot strictly above
        ``sync.highest_seen`` that :meth:`valid_assignment` accepts."""
        raise NotImplementedError

    def valid_assignment(self, ballot: Ballot, zone_ids: list[str]) -> bool:
        """May ``ballot.zone_id`` assign ``ballot.seq`` at all?"""
        raise NotImplementedError


class StableInitiatorEngine(GlobalEngine):
    """Default Ziziphus policy: one stable initiator zone per cluster.

    Ballots take consecutive sequence numbers handed out by the single
    initiator; any zone may claim any sequence (the Lemma 5.5 guard in
    the sync engine arbitrates rivals).
    """

    name = "stable"

    def initiator_zone(self, directory, sync_config, zone_id: str) -> str:
        if not sync_config.stable_leader:
            return zone_id
        # The cluster's first zone leads: its ballot chain stays
        # single-writer, cross-cluster halves included.
        return directory.cluster_zones(directory.cluster_of_zone(zone_id))[0]

    def propose(self, sync, batch) -> Ballot:
        return Ballot(seq=sync.highest_seen + 1,
                      zone_id=sync.my_zone.zone_id)

    def valid_assignment(self, ballot: Ballot, zone_ids: list[str]) -> bool:
        return True


class RotatingInitiatorEngine(GlobalEngine):
    """ezBFT-style rotating initiators: every zone initiates its own
    migrations on a partitioned sequence space.

    Zone ``i`` (by position in the deployment's zone list) owns exactly
    the sequences ``seq % num_zones == i``, so concurrent ballots from
    different zones can never collide on a sequence — the Lemma 5.5
    rival case is structurally impossible, and there is no single
    initiator whose crash stalls every in-flight global transaction.
    Sequences are sparse; execution order still chains through
    ``prev_ballot``, but with several concurrent initiators those chains
    form a tree, so different nodes may apply two ballots in either
    order. Migration execution therefore runs in commuting mode (see
    :attr:`GlobalEngine.commuting_execution`): a client's migrations
    converge via the request-timestamp high-water mark regardless of the
    interleaving a node observed.
    """

    name = "rotating"
    commuting_execution = True

    def initiator_zone(self, directory, sync_config, zone_id: str) -> str:
        return zone_id

    def _owner_index(self, zone_ids: list[str], zone_id: str) -> int:
        try:
            return zone_ids.index(zone_id)
        except ValueError:
            return -1

    def propose(self, sync, batch) -> Ballot:
        zone_ids = sync.zone_ids
        mine = self._owner_index(zone_ids, sync.my_zone.zone_id)
        seq = sync.highest_seen + 1
        if mine >= 0:
            while seq % len(zone_ids) != mine:
                seq += 1
        return Ballot(seq=seq, zone_id=sync.my_zone.zone_id)

    def valid_assignment(self, ballot: Ballot, zone_ids: list[str]) -> bool:
        owner = self._owner_index(zone_ids, ballot.zone_id)
        return owner >= 0 and ballot.seq % len(zone_ids) == owner


STABLE_INITIATOR = StableInitiatorEngine()
ROTATING_INITIATOR = RotatingInitiatorEngine()
