"""Tests for the response-query DoS audit (paper §V-A)."""

from repro.core.audit import AuditConfig, QueryAudit
from repro.crypto.digest import digest
from repro.messages.base import Signed
from repro.messages.query import ResponseQuery
from repro.messages.sync import Ballot
from tests.conftest import drive_to_completion


def test_honest_rates_are_not_suspected():
    audit = QueryAudit(AuditConfig(window_ms=1_000, suspect_threshold=5))
    for t in range(5):
        assert audit.record("n1", t * 300.0)
    assert not audit.is_suspected("n1", 1_500.0)
    assert audit.suspected(1_500.0) == []


def test_burst_is_suspected_then_dropped():
    audit = QueryAudit(AuditConfig(window_ms=1_000, suspect_threshold=5,
                                   drop_threshold=10))
    answered = sum(audit.record("attacker", float(i)) for i in range(20))
    assert audit.is_suspected("attacker", 20.0)
    assert audit.suspected(20.0) == ["attacker"]
    assert answered == 10            # rate-limited past the ceiling
    assert audit.dropped_queries == 10
    assert audit.total_queries == 20


def test_window_slides():
    audit = QueryAudit(AuditConfig(window_ms=100, suspect_threshold=3))
    for t in range(6):
        audit.record("n1", t * 10.0)
    assert audit.is_suspected("n1", 60.0)
    # Much later the old events age out of the window.
    assert not audit.is_suspected("n1", 1_000.0)
    assert audit.rate("n1", 1_000.0) == 0


def test_query_flood_is_rate_limited_in_a_deployment(ziziphus3):
    """A malicious node hammering RESPONSE-QUERY gets answered at most
    ``drop_threshold`` times per window — and its flood never triggers a
    view change (no 2f+1 distinct senders)."""
    dep = ziziphus3
    client = dep.add_client("c1", "z0")
    drive_to_completion(dep, client, [("migrate", "z1")])
    victim = dep.nodes["z0n1"]
    txn_ballot = next(iter(victim.sync.executed_results))
    attacker = "z2n3"
    query = ResponseQuery(view=0, ballot=txn_ballot, phase="commit",
                          sender=attacker)
    env = Signed(query, dep.keys.sign(attacker, digest(query)))
    for _ in range(500):
        dep.network.send(attacker, victim.node_id, env)
    dep.run(dep.sim.now + 10_000)
    audit = victim.query_audit
    assert audit.total_queries >= 500
    assert audit.dropped_queries > 0
    assert attacker in audit.suspected(dep.sim.now)
    assert victim.replica.view == 0, "a flood must not force view changes"
