"""Cross-zone transaction tests (paper §IV.B.3).

A transfer between clients hosted by different zones runs the atomic
cross-zone protocol: the paying zone escrows the funds at prepare time
(ordered through its local PBFT), and the decision commits or aborts
atomically across the involved zones only.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.cross_zone import (CrossZoneRequest, XZAccepted, XZDecision,
                                   XZPropose, accepted_body, decision_body,
                                   propose_body)
from repro.crypto.digest import digest
from repro.messages.base import sign_message
from repro.messages.client import ClientRequest
from repro.messages.pbft import PrePrepare
from tests.conftest import (assert_booked, cert_of, drive_to_completion,
                            inject, monitored, small_ziziphus)


def setup_pair(dep):
    alice = dep.add_client("alice", "z0")
    bob = dep.add_client("bob", "z1")
    return alice, bob


def xz_transfer(dep, client, peer, peer_zone, amount, timeout=60_000):
    results = []
    client.on_complete = lambda record: results.append(record)
    dep.sim.schedule(0.0, client.submit_cross_zone_transfer,
                     peer, peer_zone, amount)
    dep.run(dep.sim.now + timeout)
    return results


def test_commit_moves_money_between_zones(ziziphus3):
    dep = ziziphus3
    alice, bob = setup_pair(dep)
    results = xz_transfer(dep, alice, "bob", "z1", 30)
    assert results[0].result == ("ok", "committed")
    for node in dep.zone_nodes("z0"):
        assert node.app.balance_of("alice") == 9_970
        assert node.app.held_total() == 0
    for node in dep.zone_nodes("z1"):
        assert node.app.balance_of("bob") == 10_030


def test_insufficient_funds_aborts_and_refunds(ziziphus3):
    dep = ziziphus3
    alice, bob = setup_pair(dep)
    results = xz_transfer(dep, alice, "bob", "z1", 10_001)
    assert results[0].result == ("err", "insufficient-funds")
    for node in dep.zone_nodes("z0"):
        assert node.app.balance_of("alice") == 10_000
        assert node.app.held_total() == 0
    for node in dep.zone_nodes("z1"):
        assert node.app.balance_of("bob") == 10_000


def test_uninvolved_zone_sees_nothing(ziziphus3):
    dep = ziziphus3
    alice, bob = setup_pair(dep)
    xz_transfer(dep, alice, "bob", "z1", 10)
    for node in dep.zone_nodes("z2"):
        assert node.cross_zone.committed == 0
        assert node.cross_zone.aborted == 0


def test_same_zone_falls_back_to_local_transfer(ziziphus3):
    dep = ziziphus3
    alice = dep.add_client("alice", "z0")
    dep.add_client("carol", "z0")
    results = xz_transfer(dep, alice, "carol", "z0", 10)
    assert results[0].result == ("ok", 9_990)
    assert not results[0].is_global


def test_unknown_payee_aborts(ziziphus3):
    dep = ziziphus3
    alice, bob = setup_pair(dep)
    results = xz_transfer(dep, alice, "ghost", "z1", 10)
    assert results[0].result == ("err", "no-dst-account")
    for node in dep.zone_nodes("z0"):
        assert node.app.balance_of("alice") == 10_000
        assert node.app.held_total() == 0


def test_cross_zone_latency_is_one_wan_round_plus_consensus(ziziphus3):
    dep = ziziphus3
    alice, bob = setup_pair(dep)
    results = xz_transfer(dep, alice, "bob", "z1", 5)
    # z0<->z1 is CA<->OH (~50ms RTT): a couple of WAN legs, well under
    # the paper's geo-scale "100s of milliseconds" for full replication.
    assert 20 < results[0].latency_ms < 200


def test_cross_zone_after_migration(ziziphus3):
    dep = ziziphus3
    alice, bob = setup_pair(dep)
    drive_to_completion(dep, alice, [("migrate", "z2")])
    results = xz_transfer(dep, alice, "bob", "z1", 40)
    assert results[0].result == ("ok", "committed")
    for node in dep.zone_nodes("z2"):
        assert node.app.balance_of("alice") == 9_960
    for node in dep.zone_nodes("z1"):
        assert node.app.balance_of("bob") == 10_040


def test_survives_crashed_participant_backup(ziziphus3):
    dep = ziziphus3
    alice, bob = setup_pair(dep)
    dep.nodes["z1n2"].crash()
    results = xz_transfer(dep, alice, "bob", "z1", 15)
    assert results[0].result == ("ok", "committed")
    for node in dep.zone_nodes("z1"):
        if not node.crashed:
            assert node.app.balance_of("bob") == 10_015


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.booleans(), st.integers(1, 6000)),
                min_size=1, max_size=5))
def test_property_cross_zone_transfers_conserve_money(transfers):
    dep = small_ziziphus()
    alice = dep.add_client("alice", "z0")
    bob = dep.add_client("bob", "z1")
    clients = {"alice": (alice, "bob", "z1"), "bob": (bob, "alice", "z0")}
    for a_sends, amount in transfers:
        sender, peer, peer_zone = clients["alice" if a_sends else "bob"]
        results = xz_transfer(dep, sender, peer, peer_zone, amount)
        assert results, "transfer must complete"
    total = 0
    for zone_id, client_id in (("z0", "alice"), ("z1", "bob")):
        balances = {n.app.balance_of(client_id)
                    for n in dep.zone_nodes(zone_id)}
        assert len(balances) == 1, "zone replicas diverged"
        total += balances.pop()
        assert all(n.app.held_total() == 0 for n in dep.zone_nodes(zone_id))
    assert total == 20_000, "cross-zone transfers must conserve money"


# ----------------------------------------------------------------------
# Adversarial receipt: every certified cross-zone message is judged by
# ZiziphusNode.check_cert, from both sides of the guard.
# ----------------------------------------------------------------------
XID = "z0:1"
Z0, Z1, Z2 = (tuple(f"{zone}n{i}" for i in range(3))
              for zone in ("z0", "z1", "z2"))

#: variant -> (signers, whether the certificate covers the right body)
BAD_CERTS = {"undersized": (Z0[:2], True),
             "foreign-signers": (Z2, True),
             "other-body": (Z0, False)}


def signed_transfer(dep, amount=30):
    steps = {"z0": ("xz-debit", "alice", amount),
             "z1": ("xz-credit", "bob", amount)}
    request = CrossZoneRequest(steps=steps, steps_digest=digest(steps),
                               prepare_zone="z0", timestamp=1,
                               sender="alice")
    return sign_message(dep.keys, "alice", request)


def untouched(dep):
    """Nothing escrowed, ordered, executed or decided anywhere."""
    return all(node.app.held_total() == 0
               and node.app.balance_of("alice") in (0, 10_000)
               and node.app.balance_of("bob") in (0, 10_000)
               and node.replica.last_executed == 0
               and node.cross_zone.committed == node.cross_zone.aborted == 0
               for node in dep.nodes.values())


@pytest.mark.parametrize("variant", sorted(BAD_CERTS))
def test_xz_propose_with_bad_certificate_is_refused(ziziphus3, variant):
    dep = ziziphus3
    setup_pair(dep)
    monitor = monitored(dep)
    env = signed_transfer(dep)
    signers, covers = BAD_CERTS[variant]
    body = propose_body(XID, digest(env.payload))
    propose = XZPropose(xid=XID, request=env, sender="z0n0",
                        cert=cert_of(dep, signers, body, covers))
    sent = dep.network.stats.sent
    inject(dep, "z0n0", "z1n0", propose)
    assert untouched(dep)
    assert not dep.nodes["z1n0"].cross_zone._txns
    assert dep.network.stats.sent == sent + 1   # nobody answered
    assert_booked(monitor, "xz-propose", "z0n0")


def test_xz_propose_with_valid_certificate_is_prepared(ziziphus3):
    dep = ziziphus3
    setup_pair(dep)
    monitor = monitored(dep)
    env = signed_transfer(dep)
    body = propose_body(XID, digest(env.payload))
    propose = XZPropose(xid=XID, request=env, sender="z0n0",
                        cert=cert_of(dep, Z0, body))
    inject(dep, "z0n0", "z1n0", propose)
    # z1's primary ordered the payee check and answered XZ-ACCEPTED.
    assert dep.nodes["z1n0"].cross_zone._txns[XID].prepared_ok is True
    assert all(n.replica.last_executed == 1 for n in dep.zone_nodes("z1"))
    assert monitor.violations == []


def pending_initiator(dep):
    """A real transfer whose payee zone is down: z0 waits for z1's answer."""
    alice, _bob = setup_pair(dep)
    for node in dep.zone_nodes("z1"):
        node.crash()
    results = []
    alice.on_complete = results.append
    alice.submit_cross_zone_transfer("bob", "z1", 30)
    dep.run(dep.sim.now + 1_000)
    state = dep.nodes["z0n0"].cross_zone._txns[XID]
    assert state.role == "initiator" and not state.decided
    return state, results


@pytest.mark.parametrize("variant", sorted(BAD_CERTS))
def test_xz_accepted_with_bad_certificate_is_refused(ziziphus3, variant):
    dep = ziziphus3
    monitor = monitored(dep)
    state, results = pending_initiator(dep)
    signers, covers = BAD_CERTS[variant]
    signers = Z2 if signers is Z2 else tuple(
        s.replace("z0", "z1") for s in signers)
    body = accepted_body(XID, "z1", True, "ok")
    accepted = XZAccepted(xid=XID, zone_id="z1", ok=True, reason="ok",
                          sender="z1n0",
                          cert=cert_of(dep, signers, body, covers))
    inject(dep, "z1n0", "z0n0", accepted)
    assert not state.accepted and not state.decided and not results
    assert all(n.app.balance_of("alice") == 9_970 and n.app.held_total() == 30
               for n in dep.zone_nodes("z0")), "escrow must stay held"
    assert_booked(monitor, "xz-accepted", "z1n0")


def test_xz_accepted_with_valid_certificate_decides(ziziphus3):
    dep = ziziphus3
    monitor = monitored(dep)
    state, results = pending_initiator(dep)
    body = accepted_body(XID, "z1", True, "ok")
    accepted = XZAccepted(xid=XID, zone_id="z1", ok=True, reason="ok",
                          sender="z1n0", cert=cert_of(dep, Z1, body))
    inject(dep, "z1n0", "z0n0", accepted)
    assert state.decided and results[0].result == ("ok", "committed")
    assert all(n.app.held_total() == 0 for n in dep.zone_nodes("z0"))
    assert monitor.violations == []


@pytest.mark.parametrize("variant", sorted(BAD_CERTS))
def test_xz_decision_with_bad_certificate_is_refused(ziziphus3, variant):
    dep = ziziphus3
    setup_pair(dep)
    monitor = monitored(dep)
    env = signed_transfer(dep)
    signers, covers = BAD_CERTS[variant]
    body = decision_body(XID, True, digest(env.payload))
    decision = XZDecision(xid=XID, commit=True, reason="ok", request=env,
                          sender="z0n0",
                          cert=cert_of(dep, signers, body, covers))
    inject(dep, "z0n0", "z1n0", decision)
    assert untouched(dep)
    assert_booked(monitor, "xz-decision", "z0n0")


def test_xz_decision_with_valid_certificate_is_finalized(ziziphus3):
    dep = ziziphus3
    setup_pair(dep)
    monitor = monitored(dep)
    env = signed_transfer(dep)
    body = decision_body(XID, True, digest(env.payload))
    decision = XZDecision(xid=XID, commit=True, reason="ok", request=env,
                          sender="z0n0", cert=cert_of(dep, Z0, body))
    inject(dep, "z0n0", "z1n0", decision)
    assert dep.nodes["z1n0"].cross_zone.committed == 1
    assert all(n.app.balance_of("bob") == 10_030
               for n in dep.zone_nodes("z1"))
    assert monitor.violations == []


def test_retransmitted_request_opens_no_second_transaction(ziziphus3):
    """Regression: the (client, timestamp) de-duplication is a dictionary
    lookup — it used to scan every transaction the node had ever seen, so
    request n cost O(n)."""
    dep = ziziphus3
    state, _results = pending_initiator(dep)
    engine = dep.nodes["z0n0"].cross_zone

    class NoScan(dict):
        def _refuse(self, *args):
            raise AssertionError("the handler iterated _txns")
        __iter__ = values = items = keys = _refuse

    engine._txns = NoScan(engine._txns)
    inject(dep, "alice", "z0n0", state.request_env.payload)
    assert engine._next_seq == 1 and list(dict.keys(engine._txns)) == [XID]


# ----------------------------------------------------------------------
# The escrow opcodes run for a zone-internal sender only
# ----------------------------------------------------------------------

def test_a_client_cannot_run_an_escrow_opcode():
    """Client ``mallory`` orders escrow steps under its own name: each
    executes as a refusal on every replica. (At the parent the credit
    returned ``("ok", 1010000)`` and the ``xz-apply`` moved 500 out of
    alice's account.)"""
    dep = small_ziziphus()
    dep.add_client("alice", "z0")
    mallory = dep.add_client("mallory", "z0")
    records = drive_to_completion(dep, mallory, [
        ("local", ("xz-credit", "mallory", 1_000_000, "x")),
        ("local", ("xz-apply", "alice", ("transfer", "mallory", 500)))])
    assert [record.result for record in records] \
        == [("err", "internal-only")] * 2
    for node in dep.zone_nodes("z0"):
        assert (node.app.balance_of("alice"),
                node.app.balance_of("mallory")) == (10_000, 10_000)


def test_an_escrow_opcode_a_faulty_primary_orders_for_a_client_is_refused():
    """z0's primary pre-prepares, by hand, c0's own signed ``xz-credit``
    for the three backups; they order it and refuse it alike."""
    dep = small_ziziphus()
    dep.add_client("c0", "z0")
    keys = dep.keys
    request = sign_message(keys, "c0", ClientRequest(
        operation=("xz-credit", "c0", 1_000_000, "x"), timestamp=1,
        sender="c0"))
    pre_prepare = sign_message(keys, "z0n0", PrePrepare(
        view=0, sequence=1, batch_digest=digest((request.payload,)),
        batch=(request,), sender="z0n0"))
    for backup in ("z0n1", "z0n2", "z0n3"):
        dep.network.send("z0n0", backup, pre_prepare)
    dep.sim.run(until=1_000.0)
    for backup in ("z0n1", "z0n2", "z0n3"):
        replica = dep.nodes[backup].replica
        assert replica.last_executed == 1
        assert replica.client_table["c0"] == (1, ("err", "internal-only"))
        assert replica.app.balance_of("c0") == 10_000
