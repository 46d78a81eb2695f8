"""The known-defect ledger of ROADMAP items 1, 3 and 10, one seeded run
per entry.

Each test asserts what a correct deployment does. An open entry is marked
``xfail(strict=True)``: it fails today, and the day a fix makes it pass
the suite goes red until the mark is removed and the ledger entry closed.
A closed entry keeps its test, unmarked, as a regression test.

Shared setup: ``small_ziziphus()`` (3 zones, f = 1, ``fast_sync()``), a
migration of client ``c0`` from z0 to z2 and 20 000 simulated ms, with
at most one faulty node per zone — within budget.
"""

import pytest

from repro.messages.base import sign_message
from repro.messages.client import ClientRequest
from repro.messages.endorse import EndorsePrePrepare
from repro.messages.migration import StateTransfer
from repro.pbft.faults import Behavior, HonestBehavior
from tests.conftest import fast_sync, small_ziziphus

known_defect = pytest.mark.xfail(strict=True, raises=AssertionError)


class _SignsButIsNotHonest(Behavior):
    """Signs every message faithfully, but is not ``HonestBehavior``, so
    ``HostNode.forward`` relays nothing for it."""

    name = "relays-nothing"

    def outbound(self, keys, signer, dst, payload):
        return sign_message(keys, signer, payload)


class _SendsNoState(_SignsButIsNotHonest):
    """Relays nothing, and signs no STATE either."""

    name = "sends-no-state"

    def outbound(self, keys, signer, dst, payload):
        if isinstance(payload, StateTransfer):
            return None
        return super().outbound(keys, signer, dst, payload)


class _DropsAcceptedPrePrepare(HonestBehavior):
    """Honest, except that it never opens a ``gsync-accepted`` round."""

    name = "drops-accepted-preprepare"

    def outbound(self, keys, signer, dst, payload):
        if isinstance(payload, EndorsePrePrepare) and \
                payload.instance.startswith("gsync-accepted/"):
            return None
        return super().outbound(keys, signer, dst, payload)


def _migrate_c0(deployment, faulty):
    """Give each node in ``faulty`` its behaviour, migrate ``c0`` from z0
    to z2 and run 20 000 ms."""
    for node_id, behavior in faulty.items():
        deployment.set_behavior(node_id, behavior)
    client = deployment.add_client("c0", "z0")
    deployment.sim.schedule(0.0, lambda: client.submit_migration("z2"))
    deployment.run(20_000.0)
    return deployment


def _applied_at_z2(deployment):
    return [node.migration.migrations_applied
            for node in deployment.zone_nodes("z2")]


def _leaderless_with_accepted_dropped():
    return _migrate_c0(
        small_ziziphus(sync=fast_sync(stable_leader=False)),
        {"z0n0": _DropsAcceptedPrePrepare(),
         "z1n0": _DropsAcceptedPrePrepare()})


def test_d9_source_primary_that_relays_nothing_stalls_the_group():
    """Closed: z2's STATE query is answered by each source proxy holding
    the group's certificate, which builds the STATE from it. (No STATE
    was ever sent and z2 re-queried 64 times: only the primary kept the
    envelope it had shipped, and re-shipped that.)"""
    deployment = _migrate_c0(small_ziziphus(),
                             {"z0n0": _SignsButIsNotHonest()})
    assert _applied_at_z2(deployment) == [1, 1, 1, 1]


def test_d9_a_source_primary_that_sends_no_state_at_all_is_answered_for():
    """The source primary neither ships the STATE nor answers a query
    for it: the other proxy (z0n1, §VI's f+1) answers."""
    deployment = _migrate_c0(small_ziziphus(),
                             {"z0n0": _SendsNoState()})
    assert _applied_at_z2(deployment) == [1, 1, 1, 1]


def test_d10_leaderless_follower_backups_watch_accepted():
    """Closed: a follower backup watches each round on its own, ACCEPTED
    too. (It kept one watch per ballot, armed for PROMISE: 19
    ``sync.start``, 38 ``sync.promise``, no ``sync.accepted`` and no view
    change.)"""
    deployment = _leaderless_with_accepted_dropped()
    for zone_id in ("z0", "z1"):
        assert all(node.replica.view > 0
                   for node in deployment.zone_nodes(zone_id)), zone_id


def test_d11_reproposed_ballot_does_not_chain_to_the_superseded_one():
    """Closed: superseding a ballot rolls back ``last_accepted``, the one
    place a re-proposal's ``prev`` is chained from. (Only a separate
    initiator-side chain tail rolled back, so ballot ``2.z2`` committed
    on all 12 nodes with ``prev`` = ``1.z2``, which never commits, and
    nothing executed.)"""
    deployment = _leaderless_with_accepted_dropped()
    assert _applied_at_z2(deployment) == [1, 1, 1, 1]


def test_d1i_a_primary_crashed_under_load_stalls_nothing():
    """Closed on re-measurement: no fix is known. z0's primary crashes
    at 1 000 ms under 20 clients per zone, 10 % of them global, seed 3.
    It passes on all three backends; ``syncbft``, the cheapest, is run
    here. (It was flagged ``stall: 4``.)"""
    from repro.chaos import FaultAction, Scenario, run_scenario
    scenario = Scenario(
        name="crash-under-load", description="z0's primary crashes under "
        "load", budget="<=f", expect="safe",
        actions=(FaultAction(1_000.0, "crash", node="primary:z0"),),
        clients_per_zone=20, global_fraction=0.1)
    result = run_scenario(scenario, seed=3, backend="syncbft")
    assert result.verdict == "pass", result.reasons
    assert result.violation_kinds == {}


@known_defect
def test_d16_a_former_primary_that_missed_its_zones_view_change_stalls():
    """`zone-internal-split` on `rotating`, seed 4: after the heal z2's
    former primary has missed its zone's view change and keeps starting
    ballots the zone ignores, so the monitor flags a stall on
    ``sync/NN.z2`` in phase ``start``."""
    from repro.chaos import CAMPAIGNS, run_scenario
    scenario = next(s for s in CAMPAIGNS["default"]
                    if s.name == "zone-internal-split")
    result = run_scenario(scenario, seed=4, backend="rotating")
    assert result.verdict == "pass", result.reasons


@known_defect
def test_d23_a_faulty_primary_cannot_order_an_internal_step_of_its_own():
    """z0's primary signs ``("xz-apply", "alice", ("transfer", "mallory",
    500))`` under ``xz:forged:prepare``, an internal identity the shared
    registry derives for anyone, and orders it. Backups check only that
    signature, so all four z0 replicas move alice's 500 to mallory; an
    internal step should carry the certified XZ-PROPOSE / XZ-DECISION it
    comes from."""
    deployment = small_ziziphus()
    for client_id in ("alice", "mallory"):
        deployment.add_client(client_id, "z0")
    forger = "xz:forged:prepare"
    request = ClientRequest(
        operation=("xz-apply", "alice", ("transfer", "mallory", 500)),
        timestamp=1, sender=forger)
    deployment.nodes["z0n0"].replica.submit_request(
        sign_message(deployment.keys, forger, request))
    deployment.sim.run(until=1_000.0)
    assert [node.app.balance_of("alice")
            for node in deployment.zone_nodes("z0")] == [10_000] * 4
