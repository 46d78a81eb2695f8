"""Unit tests for the node CPU/service-time model."""

import pytest

from repro.sim.events import Simulator
from repro.sim.process import CostModel, Process


class Echo(Process):
    def __init__(self, sim, node_id, cost_model):
        super().__init__(sim, node_id, cost_model)
        self.handled = []

    def on_message(self, sender, message):
        self.handled.append((self.sim.now, message))


class FixedUnits:
    """Message advertising a fixed signature-verification cost."""

    def __init__(self, units):
        self._units = units

    def signature_units(self):
        return self._units


def test_service_time_includes_per_signature_cost():
    sim = Simulator()
    node = Echo(sim, "n", CostModel(base_ms=0.1, verify_ms=0.2))
    node.deliver("peer", FixedUnits(3))
    assert node.busy_until == pytest.approx(0.1 + 0.6)
    node.deliver("peer", object())
    assert node.busy_until == pytest.approx(0.7 + 0.1 + 0.2)
    assert node.cpu_time_ms == pytest.approx(1.0)


def test_send_time_scales_with_destinations():
    model = CostModel(sign_ms=0.5, send_ms=0.1)
    assert model.send_time(0) == pytest.approx(0.5)
    assert model.send_time(4) == pytest.approx(0.9)


def test_messages_queue_behind_busy_cpu():
    sim = Simulator()
    node = Echo(sim, "n", CostModel(base_ms=1.0, verify_ms=0.0))
    node.deliver("peer", "m1")
    node.deliver("peer", "m2")
    node.deliver("peer", "m3")
    sim.run()
    times = [t for t, _ in node.handled]
    assert times == pytest.approx([1.0, 2.0, 3.0])


def test_idle_cpu_starts_immediately():
    sim = Simulator()
    node = Echo(sim, "n", CostModel(base_ms=1.0, verify_ms=0.0))
    node.deliver("peer", "m1")
    sim.run()
    sim.at(10.0, node.deliver, "peer", "m2")
    sim.run()
    assert node.handled[1][0] == pytest.approx(11.0)


def test_occupy_delays_subsequent_work():
    sim = Simulator()
    node = Echo(sim, "n", CostModel(base_ms=1.0, verify_ms=0.0))
    node.occupy(5.0)
    node.deliver("peer", "m")
    sim.run()
    assert node.handled[0][0] == pytest.approx(6.0)


def test_crashed_node_drops_messages_and_timers():
    sim = Simulator()
    node = Echo(sim, "n", CostModel(base_ms=1.0, verify_ms=0.0))
    fired = []
    node.set_timer(5.0, fired.append, "timer")
    node.crash()
    node.deliver("peer", "m")
    sim.run()
    assert node.handled == []
    assert fired == []
    assert node.crashed


def test_recover_resumes_processing():
    sim = Simulator()
    node = Echo(sim, "n", CostModel(base_ms=1.0, verify_ms=0.0))
    node.crash()
    node.deliver("peer", "lost")
    sim.run()
    node.recover()
    node.deliver("peer", "kept")
    sim.run()
    assert [m for _, m in node.handled] == ["kept"]


def test_crash_mid_queue_drops_pending_dispatches():
    sim = Simulator()
    node = Echo(sim, "n", CostModel(base_ms=1.0, verify_ms=0.0))
    node.deliver("peer", "first")
    node.deliver("peer", "second")
    sim.schedule(1.5, node.crash)
    sim.run()
    assert [m for _, m in node.handled] == ["first"]
