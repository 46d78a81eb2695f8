"""Shared conformance battery for registered consensus backends.

Every backend in ``repro.consensus.BACKENDS`` — present and future —
must pass the same safety battery: agreement across replicas, valid
certificates under the backend's own quorum profile (checked by the
conformance monitor), recovery from a zone view change / initiator
failover, and checkpoint-based rejoin of a crashed replica. The suite
is parametrized over the registry, so adding a backend automatically
enrols it here.
"""

from __future__ import annotations

import pytest

from repro.chaos import CAMPAIGNS, run_scenario
from repro.consensus import BACKENDS, backend_names, get_backend
from repro.consensus.profile import QuorumProfile
from repro.obs.bus import Instrumentation
from repro.obs.monitor import ProtocolMonitor
from tests.conftest import drive_to_completion, fast_pbft, small_ziziphus

ALL_BACKENDS = backend_names()
GLOBAL_BACKENDS = tuple(
    n for n in ALL_BACKENDS
    if BACKENDS[n].sync is not BACKENDS["default"].sync or n == "default")


def backend_ziziphus(backend, **overrides):
    return small_ziziphus(num_zones=3, f=1, backend=backend, **overrides)


# ----------------------------------------------------------------------
# Registry sanity
# ----------------------------------------------------------------------

def test_registry_lists_default_first():
    assert ALL_BACKENDS[0] == "default"
    assert set(ALL_BACKENDS) >= {"default", "rotating", "syncbft"}


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_backend_publishes_a_sound_quorum_profile(backend):
    spec = get_backend(backend)
    profile = spec.profile(1)
    assert isinstance(profile, QuorumProfile)
    intersection = 2 * profile.certificate_quorum - profile.group_size
    if profile.fault_model == "partial-synchrony":
        # Two certificate quorums must share a *correct* node.
        assert intersection > profile.f
    else:
        # Bounded delay: overlap in one node suffices (equivocation is
        # detectable within the synchrony bound).
        assert intersection >= 1
    assert profile.weak_quorum > profile.f


# ----------------------------------------------------------------------
# Agreement: all replicas of every zone converge on the same state.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_local_and_global_agreement(backend):
    dep = backend_ziziphus(backend)
    client = dep.add_client("c1", "z0")
    records = drive_to_completion(dep, client, [
        ("local", ("deposit", 7)),
        ("migrate", "z1"),
        ("local", ("deposit", 11)),
        ("migrate", "z2"),
        ("local", ("balance",)),
    ])
    assert records[-1].result == ("ok", 10_018)
    for node in dep.zone_nodes("z2"):
        assert node.app.balance_of("c1") == 10_018
        assert node.locks.is_current("c1")
    for zone in ("z0", "z1"):
        for node in dep.zone_nodes(zone):
            assert not node.locks.is_current("c1")


# ----------------------------------------------------------------------
# Certificate validity: a monitored fault-free run stays clean, with
# certificates judged against the backend's own quorum profile.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_certificates_validate_under_backend_profile(backend):
    dep = backend_ziziphus(backend)
    obs = Instrumentation(enabled=True, recording=False, metrics=False)
    obs.attach(dep)
    monitor = ProtocolMonitor.attach(obs, dep)
    client = dep.add_client("c1", "z0")
    drive_to_completion(dep, client, [
        ("local", ("deposit", 1)), ("migrate", "z1"), ("migrate", "z0")])
    monitor.finish(dep.sim.now)
    assert monitor.violations == []


# ----------------------------------------------------------------------
# View / initiator failover: a migration completes after the source
# zone's primary crashes (forces a zone view change, after which the new
# primary re-drives the in-flight ballots, the same on every backend).
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_migration_completes_after_primary_crash(backend):
    dep = backend_ziziphus(backend)
    client = dep.add_client("c1", "z0")
    drive_to_completion(dep, client, [("local", ("deposit", 3))])
    dep.primary_of("z0").crash()
    records = drive_to_completion(dep, client, [("migrate", "z1")])
    assert records and records[-1].result == ("migrated", "ok", "z1")
    for node in dep.zone_nodes("z1"):
        assert node.app.balance_of("c1") == 10_003


# ----------------------------------------------------------------------
# Checkpoint rejoin: a crashed backup recovers and catches back up to
# the zone's state via the checkpoint/catch-up machinery.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_crashed_backup_rejoins_via_checkpoint(backend):
    dep = backend_ziziphus(backend, pbft=fast_pbft(checkpoint_period=4))
    client = dep.add_client("c1", "z0")
    laggard = dep.zone_nodes("z0")[-1]
    laggard.crash()
    drive_to_completion(dep, client,
                        [("local", ("deposit", 2 ** i)) for i in range(6)])
    laggard.recover()
    records = drive_to_completion(dep, client, [
        ("local", ("deposit", 64)), ("local", ("deposit", 128))])
    assert records[-1].result == ("ok", 10_000 + 255)
    dep.run(dep.sim.now + 60_000)
    assert laggard.app.balance_of("c1") == 10_000 + 255


# ----------------------------------------------------------------------
# Failover latency: the rotating-initiator backend exists to beat the
# stable initiator after its zone's primary dies — hold it to that.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", GLOBAL_BACKENDS)
def test_initiator_crash_recovery_is_bounded(backend):
    scenario = next(s for s in CAMPAIGNS["failover"]
                    if s.name == "initiator-crash")
    result = run_scenario(scenario, seed=1, backend=backend)
    assert result.verdict == "pass", result.reasons
    cleared = [v for v in result.recovery_ms.values() if v is not None]
    assert cleared and max(cleared) <= scenario.max_recovery_ms


def test_rotating_recovers_strictly_faster_than_default():
    scenario = next(s for s in CAMPAIGNS["failover"]
                    if s.name == "initiator-crash")
    latency = {}
    for backend in ("default", "rotating"):
        result = run_scenario(scenario, seed=1, backend=backend)
        assert result.verdict == "pass", (backend, result.reasons)
        latency[backend] = result.recovery_max_ms
    assert latency["rotating"] < latency["default"]
