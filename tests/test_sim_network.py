"""Unit tests for the simulated WAN (latency, faults, routing)."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.events import Simulator
from repro.sim.latency import LatencyModel, Region, regions_for_zones
from repro.sim.network import Network
from repro.sim.process import Process


class Sink(Process):
    """Records every delivered message with its arrival time."""

    def __init__(self, sim, node_id):
        super().__init__(sim, node_id, cost_model=None)
        self.received = []

    def deliver(self, sender, message):  # bypass CPU model for unit tests
        self.received.append((self.sim.now, sender, message))

    def on_message(self, sender, message):  # pragma: no cover
        raise AssertionError("deliver is overridden")


def make_net(jitter=0.0, seed=3):
    sim = Simulator()
    net = Network(sim, LatencyModel(jitter=jitter), seed=seed)
    return sim, net


def test_intra_region_latency_is_half_lan_rtt():
    sim, net = make_net()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    net.register(a, Region.CALIFORNIA)
    net.register(b, Region.CALIFORNIA)
    net.send("a", "b", "hello")
    sim.run()
    arrival, sender, message = b.received[0]
    assert arrival == pytest.approx(0.5)
    assert (sender, message) == ("a", "hello")


def test_wan_latency_matches_rtt_matrix():
    sim, net = make_net()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    net.register(a, Region.CALIFORNIA)
    net.register(b, Region.TOKYO)
    net.send("a", "b", "x")
    sim.run()
    model = LatencyModel(jitter=0.0)
    expected = model.rtt_ms(Region.CALIFORNIA, Region.TOKYO) / 2
    assert b.received[0][0] == pytest.approx(expected)


def test_jitter_stays_within_bounds():
    sim, net = make_net(jitter=0.1, seed=1)
    a, b = Sink(sim, "a"), Sink(sim, "b")
    net.register(a, Region.PARIS)
    net.register(b, Region.LONDON)
    net.multicast("a", ["b"] * 200, "x")
    sim.run()
    base = net.latency.rtt_ms(Region.PARIS, Region.LONDON) / 2
    arrivals = [arrival for arrival, _, _ in b.received]
    assert len(arrivals) == 200 and len(set(arrivals)) > 100
    assert all(base * 0.9 <= arrival <= base * 1.1 for arrival in arrivals)


def test_partition_blocks_cross_group_traffic():
    sim, net = make_net()
    nodes = {name: Sink(sim, name) for name in "abcd"}
    for node in nodes.values():
        net.register(node, Region.OHIO)
    net.set_partition([{"a", "b"}, {"c", "d"}])
    net.send("a", "b", 1)
    net.send("a", "c", 2)
    sim.run()
    assert len(nodes["b"].received) == 1
    assert len(nodes["c"].received) == 0
    net.set_partition(None)
    net.send("a", "c", 3)
    sim.run()
    assert len(nodes["c"].received) == 1


def test_drop_rate_one_drops_everything():
    sim, net = make_net()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    net.register(a, Region.OHIO)
    net.register(b, Region.OHIO)
    net.set_drop_rate("a", "b", 1.0)
    for i in range(10):
        net.send("a", "b", i)
    sim.run()
    assert b.received == []
    assert net.stats.dropped == 10


def test_drop_rate_validation():
    sim, net = make_net()
    with pytest.raises(ConfigurationError):
        net.set_drop_rate("a", "b", 1.5)


def test_disconnect_and_reconnect():
    sim, net = make_net()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    net.register(a, Region.OHIO)
    net.register(b, Region.OHIO)
    net.disconnect("b")
    net.send("a", "b", 1)
    sim.run()
    assert b.received == []
    net.reconnect("b")
    net.send("a", "b", 2)
    sim.run()
    assert [m for _, _, m in b.received] == [2]


def test_send_to_unknown_node_is_counted_as_dropped():
    sim, net = make_net()
    a = Sink(sim, "a")
    net.register(a, Region.OHIO)
    net.send("a", "ghost", 1)
    assert net.stats.dropped == 1


def test_duplicate_registration_rejected():
    sim, net = make_net()
    a = Sink(sim, "a")
    net.register(a, Region.OHIO)
    with pytest.raises(ConfigurationError):
        net.register(Sink(sim, "a"), Region.OHIO)


def test_move_changes_latency():
    sim, net = make_net()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    net.register(a, Region.CALIFORNIA)
    net.register(b, Region.TOKYO)
    net.move("b", Region.CALIFORNIA)
    net.send("a", "b", "near")
    sim.run()
    assert b.received[0][0] == pytest.approx(0.5)
    with pytest.raises(ConfigurationError):
        net.move("ghost", Region.OHIO)


def test_multicast_reaches_every_destination():
    sim, net = make_net()
    nodes = {name: Sink(sim, name) for name in "abc"}
    for node in nodes.values():
        net.register(node, Region.OHIO)
    net.multicast("a", ["b", "c"], "m")
    sim.run()
    assert [m for _, _, m in nodes["b"].received] == ["m"]
    assert [m for _, _, m in nodes["c"].received] == ["m"]
    assert net.stats.wan_sent == 0


def test_regions_for_zones_matches_paper_layouts():
    assert regions_for_zones(3) == [Region.CALIFORNIA, Region.OHIO,
                                    Region.QUEBEC]
    assert regions_for_zones(5) == [Region.CALIFORNIA, Region.SYDNEY,
                                    Region.PARIS, Region.LONDON,
                                    Region.TOKYO]
    assert len(regions_for_zones(7)) == 7
    assert len(regions_for_zones(9)) == 9  # wraps around
    with pytest.raises(ConfigurationError):
        regions_for_zones(0)


def test_deterministic_given_seed():
    def run(seed):
        sim, net = make_net(jitter=0.1, seed=seed)
        a, b = Sink(sim, "a"), Sink(sim, "b")
        net.register(a, Region.CALIFORNIA)
        net.register(b, Region.PARIS)
        for i in range(5):
            net.send("a", "b", i)
        sim.run()
        return [t for t, _, _ in b.received]

    assert run(5) == run(5)
    assert run(5) != run(6)


def test_rtt_matrix_covers_all_region_pairs():
    import itertools
    model = LatencyModel()
    for a, b in itertools.combinations(list(Region), 2):
        rtt = model.rtt_ms(a, b)
        assert 5.0 < rtt < 400.0
        assert model.rtt_ms(b, a) == rtt        # symmetric


def test_wan_is_slower_than_lan_everywhere():
    import itertools
    model = LatencyModel()
    for a, b in itertools.combinations(list(Region), 2):
        assert model.rtt_ms(a, b) > model.lan_rtt_ms
