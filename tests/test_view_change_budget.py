"""One PBFT view change, as a pinned unit.

A zone of four commits ``k`` batches of one request, its primary n0
crashes, and the three others ask for view 1 together: each multicasts a
VIEW-CHANGE (3 x 3 messages) carrying one prepared proof per batch, and
n1 multicasts the NEW-VIEW (3 messages), which holds the three
VIEW-CHANGEs and re-proposes each batch. A proof is the primary's
pre-prepare without its batch and 2f prepares: 3 signature units, however
many requests the batch held (Castro-Liskov send the digest). The
re-proposals carry their batches, so a NEW-VIEW costs ``1 + 3(1 + 3k) +
k(1 + b)`` units for batches of ``b``. Run as a script it prints what CI
shows in the job summary.
"""

import pytest

from repro.app.banking import BankingApp
from repro.crypto.keys import KeyRegistry
from repro.messages.base import sign_message
from repro.messages.client import ClientRequest
from repro.messages.pbft import NewView, ViewChange
from repro.pbft.node import PBFTNode
from repro.pbft.replica import PBFTConfig
from repro.sim.events import Simulator
from repro.sim.latency import LatencyModel, Region
from repro.sim.network import Network

#: Prepared batches carried over, and what one view change sends.
BATCHES = 3
VIEW_CHANGES, NEW_VIEWS = 9, 3
UNITS_PER_PROOF = 3
UNITS_PER_VIEW_CHANGE = 1 + UNITS_PER_PROOF * BATCHES
UNITS_PER_NEW_VIEW = 1 + 3 * UNITS_PER_VIEW_CHANGE + BATCHES * (1 + 1)


def one_view_change(batches=BATCHES):
    """The envelopes one view change of a zone of four puts on the
    network, by type, after ``batches`` committed batches of one."""
    sim = Simulator()
    network = Network(sim, LatencyModel(), seed=5)
    keys = KeyRegistry(seed=5)
    group = tuple(f"n{i}" for i in range(4))
    config = PBFTConfig(batch_size=1, batch_timeout_ms=0.5,
                        request_timeout_ms=10_000.0,
                        view_change_timeout_ms=10_000.0)
    nodes = [PBFTNode(sim, network, keys, node_id, group, f=1,
                      app=BankingApp(), config=config) for node_id in group]
    for node in nodes:
        network.register(node, Region.CALIFORNIA)
    for timestamp in range(1, batches + 1):
        request = ClientRequest(operation=("open", timestamp),
                                timestamp=timestamp, sender=f"c{timestamp}")
        nodes[0].replica.submit_request(
            sign_message(keys, request.sender, request))
        sim.run(until=sim.now + 50)
    assert all(node.replica.last_executed == batches for node in nodes)
    nodes[0].crash()
    sent = {ViewChange: [], NewView: []}
    multicast = network.multicast

    def tap(src, dsts, message):
        dsts = tuple(dsts)
        if type(message.payload) in sent:
            sent[type(message.payload)] += [message] * len(dsts)
        multicast(src, dsts, message)

    network.multicast = tap
    for node in nodes[1:]:
        node.replica.view_changes.initiate(1)
    sim.run(until=sim.now + 100)
    assert [(node.replica.view, node.replica.view_active)
            for node in nodes[1:]] == [(1, True)] * 3
    return sent[ViewChange], sent[NewView]


@pytest.fixture(scope="module")
def sent():
    return one_view_change()


def test_one_view_change_sends_one_round(sent):
    view_changes, new_views = sent
    assert (len(view_changes), len(new_views)) == (VIEW_CHANGES, NEW_VIEWS)


def test_a_proof_costs_three_units_whatever_its_batch_holds(sent):
    view_changes, _ = sent
    for envelope in view_changes:
        proofs = envelope.payload.prepared_proofs
        assert len(proofs) == BATCHES
        for proof in proofs:
            assert proof.pre_prepare.payload.batch == ()
            assert 1 + len(proof.prepares) == UNITS_PER_PROOF
        assert envelope.signature_units() == UNITS_PER_VIEW_CHANGE


def test_a_new_view_costs_its_view_changes_and_its_batches(sent):
    _, new_views = sent
    for envelope in new_views:
        assert [len(pp.payload.batch)
                for pp in envelope.payload.pre_prepares] == [1] * BATCHES
        assert envelope.signature_units() == UNITS_PER_NEW_VIEW


if __name__ == "__main__":
    view_changes, new_views = one_view_change()
    print(f"one view change at n = 4 carrying {BATCHES} batches: "
          f"{len(view_changes)} VIEW-CHANGE + {len(new_views)} NEW-VIEW "
          f"messages; {UNITS_PER_PROOF} units per proof, "
          f"{view_changes[0].signature_units()} per VIEW-CHANGE, "
          f"{new_views[0].signature_units()} per NEW-VIEW (pins "
          f"{VIEW_CHANGES} + {NEW_VIEWS}, {UNITS_PER_VIEW_CHANGE}, "
          f"{UNITS_PER_NEW_VIEW})")
