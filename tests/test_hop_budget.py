"""Call budget of one signed message hop.

A hop is ``send_signed`` -> ``sign_message`` -> network -> heap ->
``Process.deliver`` -> heap -> ``_dispatch`` -> ``verify_signed`` ->
handler (DESIGN.md §10, "The hop"). Its cost in interpreter calls is a
pure function of the code, so it is pinned here: a change that adds
calls to the path fails this file on any host. CI prints both budgets
in the job summary.
"""

import gc
import sys

from repro.crypto.keys import KeyRegistry
from repro.messages.client import ClientRequest
from repro.obs.bus import Instrumentation
from repro.pbft.host import HostNode
from repro.sim.events import Simulator
from repro.sim.latency import Region
from repro.sim.network import Network

#: Python + C calls from ``send_signed(dst, payload)`` to quiescence:
#: seal, one network hop, delivery, dispatch, verification, handler.
#: The count on CPython 3.11 (3.10 and 3.12 make one or two fewer);
#: 104 before PR 15, 75 before envelopes were sealed (PR 19), 62 while
#: ``KeyRegistry.sign`` looked its answer up before computing it (PR 20).
#: 60 while the seal hashed and signed at once: it now walks the payload
#: only to count its verifications, and the digest and the tag are made
#: when something reads them, which nothing on this hop does.
UNICAST_CALL_BUDGET = 40
#: The same for one ``multicast_signed`` to three peers (195, 123, 100,
#: 98); each receiver reads the signer through ``Signed.sender``.
MULTICAST3_CALL_BUDGET = 80


def build():
    """Four registered host nodes on the monitor-only bus (no metrics,
    no trace rows), each with a no-op handler; the sender warmed up so
    that lazily compiled schemas and key derivation are not counted."""
    sim = Simulator()
    sim.obs = Instrumentation(enabled=True, metrics=False)
    network = Network(sim, seed=5)
    keys = KeyRegistry(seed=5)
    nodes = [HostNode(sim, network, keys, f"n{i}") for i in range(4)]
    for node in nodes:
        node.register_handler(ClientRequest,
                              lambda sender, payload, envelope: None)
        network.register(node, Region.OHIO)
    nodes[0].multicast_signed(["n1", "n2", "n3"], request(0))
    sim.run()
    return sim, network, nodes[0]


def request(timestamp):
    return ClientRequest(operation=("noop",), timestamp=timestamp,
                         sender="n0")


def calls(sim, action):
    """Python and C calls made by ``action()`` and the run after it. The
    collector is off meanwhile: a collection would count the finalizers
    of whatever garbage earlier tests left (four calls, now and then)."""
    count = 0

    def tally(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    gc.collect()
    gc.disable()
    sys.setprofile(tally)
    try:
        action()
        sim.run()
    finally:
        sys.setprofile(None)
        gc.enable()
    # Not the hop: action's own frame and the setprofile(None) above.
    return count - 2


def hop_calls(sim, sender):
    handled = sender.network.process("n1").messages_handled
    unicast = calls(sim, lambda: sender.send_signed("n1", request(1)))
    multicast = calls(sim, lambda: sender.multicast_signed(
        ["n1", "n2", "n3"], request(2)))
    assert sender.network.process("n1").messages_handled == handled + 2
    return unicast, multicast


def test_hop_stays_within_its_call_budget():
    sim, network, sender = build()
    unicast, multicast = hop_calls(sim, sender)
    assert unicast <= UNICAST_CALL_BUDGET
    assert multicast <= MULTICAST3_CALL_BUDGET
    # A fan-out signs once and enters the network once.
    assert multicast < 3 * unicast


def test_healed_fault_tables_cost_nothing():
    sim, network, sender = build()
    untouched = hop_calls(sim, sender)
    sim, network, sender = build()
    network.set_partition([["n0", "n1"], ["n2", "n3"]])
    network.disconnect("n3")
    network.set_drop_rate("n0", "n1", 0.5)
    network.clear_faults()
    assert hop_calls(sim, sender) == untouched


if __name__ == "__main__":
    # What CI prints: the measured counts beside the pinned budgets.
    measured = hop_calls(*build()[::2])
    print(f"unicast {measured[0]} (budget {UNICAST_CALL_BUDGET}), "
          f"3-way multicast {measured[1]} "
          f"(budget {MULTICAST3_CALL_BUDGET})")
