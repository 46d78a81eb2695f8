"""One PBFT view change, as a pinned unit.

A zone commits ``k`` batches of one request, its primary n0 crashes, and
the others ask for view 1 together: each multicasts a VIEW-CHANGE naming
one prepared proof per batch, and n1 multicasts the NEW-VIEW, which holds
the ``2f+1`` VIEW-CHANGEs it was assembled from and re-proposes each
batch (in a zone of seven it sends the NEW-VIEW again to the one member
whose VIEW-CHANGE came after it left). A proof is a reference — view, sequence, batch digest, signers —
that every receiver matches in its own log, so it costs no signature
unit (3 when it carried the primary's pre-prepare and 2f prepares), a
VIEW-CHANGE costs 1 whatever it names (``1 + 3k`` before), and a NEW-VIEW
``1 + (2f+1) + k`` — its re-proposals go by digest, without their
batches (``1 + 3(1 + 3k) + k(1 + b)`` before, for batches of ``b``). Nobody
fetches anything. What one view change sends is pinned here in zones of
four and of seven and checked against ``analysis.complexity``. Run as a
script it prints what CI shows in the job summary.
"""

import pytest

from repro.analysis.complexity import view_change_messages, view_change_units
from repro.app.banking import BankingApp
from repro.crypto.keys import KeyRegistry
from repro.messages.base import nested_signature_units, sign_message
from repro.messages.client import ClientRequest
from repro.messages.pbft import NewView, ViewChange
from repro.pbft.node import PBFTNode
from repro.pbft.replica import PBFTConfig
from repro.sim.events import Simulator
from repro.sim.latency import LatencyModel, Region
from repro.sim.network import Network

#: Prepared batches carried over, and what one view change sends in a
#: zone of four.
BATCHES = 3
VIEW_CHANGES, NEW_VIEWS = 9, 3
UNITS_PER_PROOF = 0
UNITS_PER_VIEW_CHANGE = 1
UNITS_PER_NEW_VIEW = 1 + 3 + BATCHES


def one_view_change(n=4, batches=BATCHES):
    """The envelopes one view change of a zone of ``n`` puts on the
    network, by type, after ``batches`` committed batches of one."""
    sim = Simulator()
    network = Network(sim, LatencyModel(), seed=5)
    keys = KeyRegistry(seed=5)
    group = tuple(f"n{i}" for i in range(n))
    config = PBFTConfig(batch_size=1, batch_timeout_ms=0.5,
                        request_timeout_ms=10_000.0,
                        view_change_timeout_ms=10_000.0)
    nodes = [PBFTNode(sim, network, keys, node_id, group, f=(n - 1) // 3,
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
    sent = {}
    multicast = network.multicast

    def tap(src, dsts, message):
        dsts = tuple(dsts)
        sent.setdefault(type(message.payload), []).extend([message] * len(dsts))
        multicast(src, dsts, message)

    network.multicast = tap
    for node in nodes[1:]:
        node.replica.view_changes.initiate(1)
    sim.run(until=sim.now + 100)
    assert [(node.replica.view, node.replica.view_active)
            for node in nodes[1:]] == [(1, True)] * (n - 1)
    return sent


@pytest.fixture(scope="module")
def sent():
    return one_view_change()


def test_one_view_change_sends_one_round(sent):
    assert {kind.__name__: len(envelopes) for kind, envelopes in sent.items()} \
        == {"ViewChange": VIEW_CHANGES, "NewView": NEW_VIEWS}
    assert (VIEW_CHANGES, NEW_VIEWS) == view_change_messages(4)


def test_a_proof_costs_no_unit_whatever_its_batch_holds(sent):
    for envelope in sent[ViewChange]:
        proofs = envelope.payload.prepared_proofs
        assert len(proofs) == BATCHES
        for proof in proofs:
            assert nested_signature_units(proof) == UNITS_PER_PROOF
            # The sender's own prepare is among the signers.
            assert envelope.payload.sender in proof.signers
        assert envelope.signature_units() == UNITS_PER_VIEW_CHANGE


def test_a_new_view_costs_its_view_changes_and_its_batches(sent):
    for envelope in sent[NewView]:
        assert len(envelope.payload.view_changes) == 3
        assert [pp.payload.batch for pp in envelope.payload.pre_prepares] \
            == [()] * BATCHES
        assert envelope.signature_units() == UNITS_PER_NEW_VIEW
    assert (UNITS_PER_VIEW_CHANGE, UNITS_PER_NEW_VIEW) \
        == view_change_units(4, BATCHES)


def test_a_zone_of_seven_sends_what_the_model_prices():
    sent = one_view_change(n=7)
    assert (len(sent[ViewChange]), len(sent[NewView])) \
        == view_change_messages(7) == (36, 6 + 1)
    assert set(sent) == {ViewChange, NewView}
    assert {envelope.signature_units() for envelope in sent[ViewChange]} \
        == {view_change_units(7, BATCHES)[0]}
    assert {envelope.signature_units() for envelope in sent[NewView]} \
        == {view_change_units(7, BATCHES)[1]} == {1 + 5 + BATCHES}


if __name__ == "__main__":
    census = one_view_change()
    view_changes, new_views = census[ViewChange], census[NewView]
    print(f"one view change at n = 4 carrying {BATCHES} batches: "
          f"{len(view_changes)} VIEW-CHANGE + {len(new_views)} NEW-VIEW "
          f"messages, {len(census) - 2} other kinds; "
          f"{view_changes[0].signature_units()} unit per VIEW-CHANGE, "
          f"{new_views[0].signature_units()} per NEW-VIEW (pins "
          f"{VIEW_CHANGES} + {NEW_VIEWS}, {UNITS_PER_VIEW_CHANGE}, "
          f"{UNITS_PER_NEW_VIEW}; view_change_messages / view_change_units: "
          f"{view_change_messages(4)}, {view_change_units(4, BATCHES)})")
