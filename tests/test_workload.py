"""Tests for workload generation and the closed-loop driver."""

from collections import Counter

from repro.sim.rng import derive_rng
from repro.workload.generator import WorkloadGenerator, WorkloadMix
from repro.bench.runner import PointSpec, _build, _mix
from repro.workload.driver import ClosedLoopDriver


def make_generator(global_fraction=0.3, cross=0.0, clusters=None):
    zones = ["z0", "z1", "z2", "z3"]
    zone_of_client = {"c1": "z0", "c2": "z0", "c3": "z1"}
    return WorkloadGenerator(
        WorkloadMix(global_fraction=global_fraction,
                    cross_cluster_fraction=cross),
        zones, zone_of_client, derive_rng(4, "t"),
        cluster_of_zone=clusters)


def test_mix_labels_match_paper_notation():
    assert WorkloadMix(0.1).label() == ".1G"
    assert WorkloadMix(0.3, 0.5).label() == ".3G(.5C)"


def test_global_fraction_is_respected():
    gen = make_generator(global_fraction=0.3)
    kinds = Counter(gen.next_action("c1")[0] for _ in range(4000))
    fraction = kinds["migrate"] / sum(kinds.values())
    assert 0.25 < fraction < 0.35


def test_local_transfers_target_same_zone_peers():
    gen = make_generator(global_fraction=0.0)
    for _ in range(100):
        kind, op = gen.next_action("c1")
        assert kind == "local"
        assert op == ("transfer", "c2", 1)   # only same-zone peer
    # A lonely client falls back to deposits.
    kind, op = gen.next_action("c3")
    assert op[0] == "deposit"


def test_migrations_never_target_current_zone():
    gen = make_generator(global_fraction=1.0)
    for _ in range(200):
        kind, dest = gen.next_action("c1")
        assert kind == "migrate"
        assert dest != gen.zone_of_client["c1"]


def test_cross_cluster_fraction_controls_destination_cluster():
    clusters = {"z0": "A", "z1": "A", "z2": "B", "z3": "B"}
    gen = make_generator(global_fraction=1.0, cross=0.3, clusters=clusters)
    destinations = Counter(clusters[gen.next_action("c1")[1]]
                           for _ in range(3000))
    cross_fraction = destinations["B"] / sum(destinations.values())
    assert 0.24 < cross_fraction < 0.36


def test_driver_runs_closed_loop_on_ziziphus():
    spec = PointSpec(protocol="ziziphus", num_zones=3, clients_per_zone=5,
                     global_fraction=0.2)
    dep = _build(spec)
    driver = ClosedLoopDriver(dep, _mix(spec), clients_per_zone=5, seed=3)
    driver.start()
    dep.sim.run(until=400)
    assert len(driver.records) > 50
    kinds = Counter(r.is_global for r in driver.records)
    assert kinds[True] > 0 and kinds[False] > 0
    # The driver tracks migrations: its map agrees with client state.
    for client_id, client in driver._clients.items():
        assert driver.zone_of_client[client_id] == client.current_zone


def test_driver_works_for_flat_pbft():
    spec = PointSpec(protocol="flat-pbft", num_zones=3, clients_per_zone=3,
                     global_fraction=0.2)
    dep = _build(spec)
    driver = ClosedLoopDriver(dep, _mix(spec), clients_per_zone=3, seed=3)
    driver.start()
    dep.sim.run(until=600)
    assert len(driver.records) > 10


def test_cross_zone_fraction_generates_xzone_actions():
    gen = make_generator(global_fraction=0.0)
    gen.mix = WorkloadMix(global_fraction=0.0, cross_zone_fraction=0.5)
    kinds = Counter(gen.next_action("c1")[0] for _ in range(2000))
    fraction = kinds["xzone"] / sum(kinds.values())
    assert 0.42 < fraction < 0.58
    # The chosen peer is always in another zone.
    for _ in range(50):
        kind, arg = gen.next_action("c1")
        if kind == "xzone":
            peer, peer_zone, _amount = arg
            assert peer_zone != gen.zone_of_client["c1"]


def test_driver_runs_cross_zone_transfers_end_to_end():
    from repro.bench.runner import PointSpec, _build
    spec = PointSpec(protocol="ziziphus", num_zones=3, clients_per_zone=4,
                     global_fraction=0.0)
    dep = _build(spec)
    mix = WorkloadMix(global_fraction=0.0, cross_zone_fraction=0.5)
    driver = ClosedLoopDriver(dep, mix, clients_per_zone=4, seed=9)
    driver.start()
    dep.sim.run(until=600)
    kinds = Counter(r.operation[0] for r in driver.records)
    assert kinds.get("cross-zone", 0) > 5
    assert all(r.result[0] in ("ok", "err") for r in driver.records)

