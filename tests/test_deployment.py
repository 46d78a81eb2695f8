"""Tests for deployment construction, the zone directory, and clients."""

import json
import re
from pathlib import Path

import pytest

from repro.baselines.flat_pbft import FlatPBFTConfig, build_flat_pbft
from repro.baselines.steward import build_steward
from repro.baselines.two_level_pbft import TwoLevelConfig, build_two_level
from repro.bench import runner
from repro.bench.runner import PointSpec
from repro.core.deployment import ZiziphusConfig, build_ziziphus
from repro.core.replicated import add_replicated_client
from repro.core.zone import ZoneDirectory, ZoneInfo
from repro.crypto.keys import KeyRegistry
from repro.errors import ConfigurationError
from repro.obs.monitor import MonitorTopology
from repro.sim.latency import Region
from repro.workload.driver import ClosedLoopDriver
from repro.workload.generator import WorkloadMix
from tests.conftest import drive_to_completion, monitored, small_ziziphus


# ----------------------------------------------------------------------
# Zone directory
# ----------------------------------------------------------------------
def test_zone_info_enforces_3f_plus_1():
    with pytest.raises(ConfigurationError):
        ZoneInfo(zone_id="z", members=("a", "b", "c"), f=1,
                 region=Region.OHIO)


def test_directory_lookups_and_quorums():
    directory = ZoneDirectory(KeyRegistry(seed=1))
    directory.add_zone(ZoneInfo("z0", ("a", "b", "c", "d"),
                                Region.OHIO, f=1))
    directory.add_zone(ZoneInfo("z1", ("e", "f", "g", "h"),
                                Region.PARIS, f=1, cluster_id="cluster-1"))
    assert directory.zone_of("f") == "z1"
    assert directory.zone("z0").quorum == 3
    assert directory.majority_quorum(["z0", "z1"]) == 2
    assert directory.majority_quorum(["z0", "z1", "x"]) == 2
    assert directory.nodes_of_zones(["z0"]) == ["a", "b", "c", "d"]
    assert set(directory.all_nodes()) == set("abcdefgh")
    with pytest.raises(ConfigurationError):
        directory.add_zone(ZoneInfo("z0", ("x", "y", "w", "v"),
                                    Region.OHIO, f=1))
    with pytest.raises(ConfigurationError):
        directory.add_zone(ZoneInfo("z9", ("a", "p", "q", "r"),
                                    Region.OHIO, f=1))


def test_primary_rotation():
    zone = ZoneInfo("z", ("a", "b", "c", "d"), Region.OHIO, f=1)
    assert zone.primary(0) == "a"
    assert zone.primary(1) == "b"
    assert zone.primary(4) == "a"


# ----------------------------------------------------------------------
# Deployment construction
# ----------------------------------------------------------------------
def test_single_cluster_region_placement():
    dep = small_ziziphus(num_zones=3)
    regions = [dep.directory.zone(z).region for z in dep.zone_ids]
    assert regions == [Region.CALIFORNIA, Region.OHIO, Region.QUEBEC]
    assert len(dep.nodes) == 12


def test_zone_sizes_follow_f():
    dep = small_ziziphus(num_zones=3, f=2)
    assert all(len(dep.directory.zone(z).members) == 7
               for z in dep.zone_ids)
    assert len(dep.nodes) == 21


def test_invalid_cluster_count_rejected():
    """A layout that cannot honour ``num_zones`` is refused, not built
    with the remainder dropped (7 zones / 2 clusters used to build 6)."""
    for num_zones, num_clusters in ((3, 0), (7, 2), (3, 2), (2, 4)):
        with pytest.raises(ConfigurationError):
            build_ziziphus(ZiziphusConfig(num_zones=num_zones,
                                          num_clusters=num_clusters))
    dep = build_ziziphus(ZiziphusConfig(num_zones=6, num_clusters=2))
    assert dep.zone_ids == ["z0", "z1", "z2", "z3", "z4", "z5"]
    assert dep.directory.cluster_zones("cluster-1") == ["z3", "z4", "z5"]


def test_build_rejects_config_plus_overrides():
    """One rule for the four builders: a config xor overrides."""
    for build, config in ((build_ziziphus, ZiziphusConfig()),
                          (build_steward, ZiziphusConfig()),
                          (build_two_level, TwoLevelConfig()),
                          (build_flat_pbft, FlatPBFTConfig())):
        with pytest.raises(ConfigurationError):
            build(config, num_zones=5)
        assert len(build(num_zones=5).zone_ids) == 5


def test_add_client_bootstraps_state(ziziphus3):
    dep = ziziphus3
    dep.add_client("c1", "z1")
    for node in dep.zone_nodes("z1"):
        assert node.locks.is_current("c1")
        assert node.app.balance_of("c1") == 10_000
    for node in dep.zone_nodes("z0"):
        assert not node.locks.hosts("c1")
        assert node.metadata.client_zone["c1"] == "z1"


def test_primary_of_tracks_views(ziziphus3):
    dep = ziziphus3
    assert dep.primary_of("z0").node_id == "z0n0"
    dep.nodes["z0n1"].replica.view = 1  # simulate a view change
    assert dep.primary_of("z0").node_id == "z0n1"


# ----------------------------------------------------------------------
# Mobile client behaviour
# ----------------------------------------------------------------------
def test_client_moves_regions_on_migration(ziziphus3):
    dep = ziziphus3
    client = dep.add_client("c1", "z0")
    assert dep.network.region_of("c1") == Region.CALIFORNIA
    drive_to_completion(dep, client, [("migrate", "z2")])
    assert dep.network.region_of("c1") == Region.QUEBEC
    # Local latency in the new zone is LAN-scale again.
    records = drive_to_completion(dep, client, [("local", ("balance",))])
    assert records[0].latency_ms < 10


def test_client_tracks_zone_views_from_replies(ziziphus3):
    dep = ziziphus3
    client = dep.add_client("c1", "z1")
    dep.nodes["z1n0"].crash()
    records = drive_to_completion(dep, client, [("local", ("deposit", 1))],
                                  step_ms=60_000)
    assert records[0].result == ("ok", 10_001)
    assert client.view_hints["z1"] >= 1
    # The next request goes straight to the new primary (fast path).
    records = drive_to_completion(dep, client, [("local", ("deposit", 1))])
    assert records[0].latency_ms < 20


# ----------------------------------------------------------------------
# Standing a system up: what the four builders leave behind (literals
# generated before the stand-up code was merged into one `Deployment`)
# ----------------------------------------------------------------------
STAND_UPS = {
    "ziziphus": lambda: build_ziziphus(ZiziphusConfig()),
    "ziziphus-rotating":
        lambda: build_ziziphus(ZiziphusConfig(backend="rotating")),
    "ziziphus-syncbft":
        lambda: build_ziziphus(ZiziphusConfig(backend="syncbft")),
    "ziziphus-2-clusters":
        lambda: build_ziziphus(ZiziphusConfig(num_zones=4, num_clusters=2)),
    "steward": lambda: build_steward(ZiziphusConfig()),
    "two-level": lambda: build_two_level(TwoLevelConfig()),
    "flat-pbft": lambda: build_flat_pbft(FlatPBFTConfig()),
}
PROTOCOLS = ("ziziphus", "steward", "two-level", "flat-pbft")

_THREE_PBFT_ZONES = (
    '{"clusters": {"cluster-0": ["z0", "z1", "z2"]}, "zones": {'
    '"z0": {"cluster": "cluster-0", "f": 1, '
    '"members": ["z0n0", "z0n1", "z0n2", "z0n3"]}, '
    '"z1": {"cluster": "cluster-0", "f": 1, '
    '"members": ["z1n0", "z1n1", "z1n2", "z1n3"]}, '
    '"z2": {"cluster": "cluster-0", "f": 1, '
    '"members": ["z2n0", "z2n1", "z2n2", "z2n3"]}}}')
TOPOLOGIES = {
    "ziziphus": _THREE_PBFT_ZONES,
    "steward": _THREE_PBFT_ZONES,
    "two-level": _THREE_PBFT_ZONES,
    # `execution` appears only under the rotating engine ...
    "ziziphus-rotating": _THREE_PBFT_ZONES.replace(
        '"zones"', '"execution": "commuting", "zones"'),
    # ... `quorum` only where it is not 2f+1 of 3f+1 ...
    "ziziphus-syncbft":
        '{"clusters": {"cluster-0": ["z0", "z1", "z2"]}, "zones": {'
        '"z0": {"cluster": "cluster-0", "f": 1, '
        '"members": ["z0n0", "z0n1", "z0n2"], "quorum": 2}, '
        '"z1": {"cluster": "cluster-0", "f": 1, '
        '"members": ["z1n0", "z1n1", "z1n2"], "quorum": 2}, '
        '"z2": {"cluster": "cluster-0", "f": 1, '
        '"members": ["z2n0", "z2n1", "z2n2"], "quorum": 2}}}',
    "ziziphus-2-clusters":
        '{"clusters": {"cluster-0": ["z0", "z1"], '
        '"cluster-1": ["z2", "z3"]}, "zones": {'
        '"z0": {"cluster": "cluster-0", "f": 1, '
        '"members": ["z0n0", "z0n1", "z0n2", "z0n3"]}, '
        '"z1": {"cluster": "cluster-0", "f": 1, '
        '"members": ["z1n0", "z1n1", "z1n2", "z1n3"]}, '
        '"z2": {"cluster": "cluster-1", "f": 1, '
        '"members": ["z2n0", "z2n1", "z2n2", "z2n3"]}, '
        '"z3": {"cluster": "cluster-1", "f": 1, '
        '"members": ["z3n0", "z3n1", "z3n2", "z3n3"]}}}',
    # ... and flat PBFT is one group tolerating Z * f faults.
    "flat-pbft":
        '{"clusters": {"cluster-0": ["group"]}, "zones": {"group": '
        '{"cluster": "cluster-0", "f": 3, "members": ["n0", "n1", "n2", '
        '"n3", "n4", "n5", "n6", "n7", "n8", "n9"]}}}',
}


@pytest.mark.parametrize("name", sorted(STAND_UPS))
def test_monitor_topology_of_each_stand_up(name):
    topology = MonitorTopology.from_deployment(STAND_UPS[name]())
    assert json.dumps(topology.to_dict(), sort_keys=True) == TOPOLOGIES[name]


@pytest.mark.parametrize("protocol, crashed", [
    ("ziziphus", "z0n1 z1n1 z2n1"), ("two-level", "z0n1 z1n1 z2n1"),
    ("steward", "z0n1 z1n1 z2n1"), ("flat-pbft", "n1 n4 n7")])
def test_backup_failures_crash_first_backup_per_fault_domain(protocol,
                                                            crashed):
    spec = PointSpec(protocol=protocol, backup_failures_per_zone=1)
    dep = runner._build(spec)
    runner._inject_backup_failures(spec, dep)
    assert " ".join(node_id for node_id, node in dep.nodes.items()
                    if node.crashed) == crashed


@pytest.mark.parametrize("protocol, order", [
    ("ziziphus", "z0n0 z0n1 z0n2 z0n3 z1n0 z1n1 z1n2 z1n3 "
                 "z2n0 z2n1 z2n2 z2n3 c0 c1 c2"),
    ("steward", "z0n0 z0n1 z0n2 z0n3 z1n0 z1n1 z1n2 z1n3 "
                "z2n0 z2n1 z2n2 z2n3 c0 c1 c2"),
    ("two-level", "z0n0 z0n1 z0n2 z0n3 z1n0 z1n1 z1n2 z1n3 "
                  "z2n0 z2n1 z2n2 z2n3 gx0 c0 c1 c2"),
    ("flat-pbft", "n0 n1 n2 n3 n4 n5 n6 n7 n8 n9 c0 c1 c2")])
def test_registration_order_is_placement_then_clients(protocol, order):
    """Registration order fixes heap tie-breaks and network RNG draws,
    so it is part of the byte-identity contract."""
    dep = STAND_UPS[protocol]()
    for i, zone_id in enumerate(("z1", "z0", "z2")):
        dep.add_client(f"c{i}", zone_id)
    assert " ".join(dep.network.node_ids) == order
    assert list(dep.clients) == ["c0", "c1", "c2"]


def _where(dep, holds):
    return " ".join(n for n, node in dep.nodes.items() if holds(node))


_ALL_12 = ("z0n0 z0n1 z0n2 z0n3 z1n0 z1n1 z1n2 z1n3 "
           "z2n0 z2n1 z2n2 z2n3")
_Z1 = "z1n0 z1n1 z1n2 z1n3"


def _zoned_enrolment(dep):
    """(who knows c1 lives in z1, who holds its lock, who its balance)."""
    return (
        _where(dep, lambda n: n.metadata.client_zone.get("c1") == "z1"),
        _where(dep, lambda n: n.locks.is_current("c1")),
        _where(dep, lambda n: n.app.balance_of("c1") == 10_000))


def test_enrolment_ziziphus_metadata_per_cluster_data_in_home_zone():
    dep = STAND_UPS["ziziphus"]()
    dep.add_client("c1", "z1")
    assert _zoned_enrolment(dep) == (_ALL_12, _Z1, _Z1)
    dep = STAND_UPS["ziziphus-2-clusters"]()
    dep.add_client("c1", "z1")
    assert _zoned_enrolment(dep) == (
        "z0n0 z0n1 z0n2 z0n3 z1n0 z1n1 z1n2 z1n3", _Z1, _Z1)


def test_enrolment_steward_data_on_every_zone():
    dep = STAND_UPS["steward"]()
    dep.add_client("c1", "z1")
    assert _zoned_enrolment(dep) == (_ALL_12, _ALL_12, _ALL_12)


def test_enrolment_replicated_data_on_the_replication_group():
    dep = STAND_UPS["ziziphus"]()
    client = add_replicated_client(dep, "c1", ["z1", "z2"])
    assert dep.clients["c1"] is client
    assert client.replication_group == ("z1", "z2")
    assert dep.network.region_of("c1") == Region.OHIO
    group = _Z1 + " z2n0 z2n1 z2n2 z2n3"
    assert _zoned_enrolment(dep) == (_ALL_12, group, group)


def test_enrolment_two_level_metadata_reaches_the_global_replicas():
    dep = STAND_UPS["two-level"]()
    dep.add_client("c1", "z1")
    assert _zoned_enrolment(dep) == (_ALL_12 + " gx0", _Z1, _Z1)
    assert _where(dep, lambda n: n.global_replica is not None and
                  n.global_replica.app.metadata.client_zone.get("c1")
                  == "z1") == "z0n0 z1n0 z2n0 gx0"


def test_enrolment_flat_seeds_the_whole_group_and_has_no_locks():
    dep = STAND_UPS["flat-pbft"]()
    dep.add_client("c1", "z1")
    everyone = "n0 n1 n2 n3 n4 n5 n6 n7 n8 n9"
    assert _where(dep, lambda n: n.replica.app.metadata.client_zone.get(
        "c1") == "z1") == everyone
    assert _where(dep, lambda n: n.replica.app.app.balance_of("c1")
                  == 10_000) == everyone
    assert _where(dep, lambda n: hasattr(n, "locks")) == ""
    assert dep.network.region_of("c1") == Region.OHIO


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_deployment_conformance(protocol):
    """What the runner, the monitor, the bus and the driver ask of a
    deployment, asked of each of the four."""
    dep = STAND_UPS[protocol]()
    assert dep.zone_ids == ["z0", "z1", "z2"]
    assert [dep.cluster_of_zone(z) for z in dep.zone_ids] == ["cluster-0"] * 3
    assert MonitorTopology.from_dict(dep.topology()).to_dict() == \
        json.loads(TOPOLOGIES[protocol])
    backups = dep.backups()
    assert len(backups) == 3 and all(backups)
    assert {b for domain in backups for b in domain} < set(dep.nodes)
    monitor = monitored(dep)
    driver = ClosedLoopDriver(dep, WorkloadMix(global_fraction=0.2),
                              clients_per_zone=2, seed=3)
    assert list(dep.clients) == ["z0c0", "z0c1", "z1c0", "z1c1",
                                 "z2c0", "z2c1"]
    driver.start()
    dep.run(2_000.0)
    assert all(client.completed for client in dep.clients.values())
    monitor.finish(2_000.0)
    assert not monitor.violations


def test_stand_up_site_census():
    """ROADMAP tracks how often "stand a system up" is written; it may
    not grow silently. One ``add_client``, one simulator / PKI / network
    construction, and the runner, the monitor and the bus ask no
    deployment what it is (the expressions CI's ``lint`` job prints)."""
    root = Path(__file__).resolve().parents[1] / "src" / "repro"
    source = "".join(path.read_text() for path in sorted(root.rglob("*.py")))
    assert len(re.findall(r"def add_client", source)) == 1
    for once in (r"self\.sim = Simulator\(\)",
                 r"KeyRegistry\(seed=config\.seed\)",
                 r"Network\(self\.sim, config\.latency",
                 r"def run\(self, until_ms"):
        assert len(re.findall(once, source)) == 1, once
    consumers = "".join((root / path).read_text() for path in (
        "obs/monitor.py", "obs/bus.py", "bench/runner.py"))
    assert not re.findall(r"getattr\((deployment|info|backend\.sync),",
                          consumers)
