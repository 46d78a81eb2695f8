"""Unit tests for the HostNode dispatch/forwarding layer."""

import pytest

from repro.crypto.digest import digest
from repro.crypto.keys import KeyRegistry
from repro.messages.base import Signed
from repro.messages.client import ClientReply, ClientRequest
from repro.pbft.faults import make_behavior
from repro.pbft.host import HostNode
from repro.sim.events import Simulator
from repro.sim.latency import LatencyModel, Region
from repro.sim.network import Network


def build_pair(behavior_a="honest", seed=3):
    sim = Simulator()
    net = Network(sim, LatencyModel(jitter=0.0), seed=seed)
    keys = KeyRegistry(seed=seed)
    a = HostNode(sim, net, keys, "a", behavior=make_behavior(behavior_a))
    b = HostNode(sim, net, keys, "b")
    net.register(a, Region.OHIO)
    net.register(b, Region.OHIO)
    return sim, net, keys, a, b


def request(keys, sender="a", ts=1):
    payload = ClientRequest(operation=("noop",), timestamp=ts, sender=sender)
    return Signed(payload, keys.sign(sender, digest(payload)))


def test_dispatch_by_payload_type():
    sim, net, keys, a, b = build_pair()
    seen = []
    b.register_handler(ClientRequest,
                       lambda sender, payload, env: seen.append(payload))
    a.send_signed("b", ClientRequest(operation=("noop",), timestamp=1,
                                     sender="a"))
    sim.run()
    assert len(seen) == 1
    assert b.messages_handled == 1


def test_unhandled_payload_types_are_dropped_quietly():
    sim, net, keys, a, b = build_pair()
    a.send_signed("b", ClientReply(view=0, timestamp=1, client_id="c",
                                   result=("ok",), sender="a"))
    sim.run()
    assert b.invalid_messages == 0


def test_invalid_envelopes_counted_and_dropped():
    sim, net, keys, a, b = build_pair(behavior_a="corrupt-signature")
    seen = []
    b.register_handler(ClientRequest,
                       lambda sender, payload, env: seen.append(payload))
    a.send_signed("b", ClientRequest(operation=("noop",), timestamp=1,
                                     sender="a"))
    sim.run()
    assert seen == []
    assert b.invalid_messages == 1


def test_forward_preserves_original_signer():
    sim, net, keys, a, b = build_pair()
    seen = []
    b.register_handler(ClientRequest,
                       lambda sender, payload, env: seen.append(env.sender))
    env = request(keys, sender="client-x")
    a.forward("b", env)
    sim.run()
    assert seen == ["client-x"]


def test_byzantine_nodes_do_not_forward():
    sim, net, keys, a, b = build_pair(behavior_a="silent")
    seen = []
    b.register_handler(ClientRequest,
                       lambda sender, payload, env: seen.append(1))
    a.forward("b", request(keys, sender="client-x"))
    sim.run()
    assert seen == []


@pytest.mark.parametrize("one_shot", [list, iter],
                         ids=["list", "generator"])
def test_multicast_include_self_delivers_locally(one_shot):
    sim, net, keys, a, b = build_pair()
    seen = []
    a.register_handler(ClientRequest,
                       lambda sender, payload, env: seen.append("a"))
    b.register_handler(ClientRequest,
                       lambda sender, payload, env: seen.append("b"))
    # A one-shot iterable of destinations must not lose the self-delivery.
    a.multicast_signed(one_shot(["b", "a"]),
                       ClientRequest(operation=("noop",), timestamp=1,
                                     sender="a"), include_self=True)
    sim.run()
    assert sorted(seen) == ["a", "b"]


def test_multicast_without_include_self_skips_sender():
    sim, net, keys, a, b = build_pair()
    seen = []
    a.register_handler(ClientRequest,
                       lambda sender, payload, env: seen.append("a"))
    b.register_handler(ClientRequest,
                       lambda sender, payload, env: seen.append("b"))
    a.multicast_signed(["a", "b"],
                       ClientRequest(operation=("noop",), timestamp=1,
                                     sender="a"))
    sim.run()
    assert seen == ["b"]


def test_sending_charges_cpu_time():
    sim, net, keys, a, b = build_pair()
    before = a._busy_until
    a.multicast_signed(["b"], ClientRequest(operation=("noop",),
                                            timestamp=1, sender="a"))
    assert a._busy_until > before
