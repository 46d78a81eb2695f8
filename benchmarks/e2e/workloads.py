"""The four benchmark workloads and how each one is built.

Every workload is a closed loop (the paper's clients each wait for their
reply, §VII), f = 1, WAN delay from ``repro.sim.latency``'s RTT matrix,
and is built only through public constructors so the benchmark measures
the system from outside.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.deployment import ZiziphusConfig, build_ziziphus
from repro.core.migration_protocol import MigrationConfig
from repro.core.sync_protocol import SyncConfig
from repro.obs.bus import Instrumentation
from repro.obs.monitor import MonitorConfig, ProtocolMonitor
from repro.pbft.replica import PBFTConfig
from repro.reads import ReadConfig
from repro.workload.driver import ClosedLoopDriver
from repro.workload.generator import WorkloadMix

# Bench-scale timers (the values `repro.bench.runner` uses, pinned here so
# a change to that module cannot silently change what the benchmark runs):
# batching on, failure timers far beyond any saturation queueing.
BENCH_PBFT = PBFTConfig(batch_size=16, batch_timeout_ms=1.0,
                        request_timeout_ms=8_000.0,
                        view_change_timeout_ms=8_000.0,
                        checkpoint_period=512, water_mark_window=4096)
BENCH_SYNC = SyncConfig(stable_leader=True, checkpoint_on_migration=False,
                        global_batch_size=24, global_batch_timeout_ms=10.0,
                        commit_timeout_ms=8_000.0, phase_timeout_ms=8_000.0,
                        watch_timeout_ms=8_000.0)
BENCH_MIGRATION = MigrationConfig(state_timeout_ms=8_000.0,
                                  watch_timeout_ms=8_000.0)

# Chaos-scale timers (the values `repro.chaos.runner` uses): client
# retransmission and view change must fit inside the failover episode.
CHAOS_PBFT = PBFTConfig(batch_size=8, batch_timeout_ms=1.0,
                        request_timeout_ms=250.0,
                        view_change_timeout_ms=500.0,
                        checkpoint_period=32, water_mark_window=1024)
CHAOS_RETRANSMIT_MS = 400.0

#: An operation still outstanding at the end and older than this counts
#: as failed; also the monitor's liveness-watchdog threshold.
STALE_MS = 1_000.0


@dataclass(frozen=True)
class Workload:
    """One named traffic mix; README.md says why each exists."""

    name: str
    num_zones: int
    clients_per_zone: int
    global_fraction: float
    warmup_ms: float
    measure_ms: float
    read_fraction: float = 0.0
    #: Dormant accounts seeded on every replica of each zone, so the
    #: store is much larger than the set of active clients.
    residents_per_zone: int = 0
    #: Simulated time at which z0's primary is crashed for good; the
    #: workload then runs on chaos-scale timers.
    crash_primary_at_ms: float | None = None

    @property
    def end_ms(self) -> float:
        return self.warmup_ms + self.measure_ms


# Windows are as short as keeps >= 1100 completions in each, so that a
# run fits several cycles into the benchmark's time cap.
WORKLOADS = {w.name: w for w in (
    # The paper's headline mix (Fig. 4): PBFT, canonical digests and the
    # event loop do the work, the read path none.
    Workload(
        name="mobile-mix",
        num_zones=3, clients_per_zone=40, global_fraction=0.1,
        warmup_ms=300.0, measure_ms=400.0),
    # Global sync, endorsement and nested-certificate checks dominate,
    # PBFT batches are small. 60% and not 50%, where the median request
    # flips between a local and a global operation from seed to seed.
    Workload(
        name="migrate-heavy",
        num_zones=4, clients_per_zone=40, global_fraction=0.6,
        warmup_ms=300.0, measure_ms=1300.0),
    # Certified reads over a store much larger than the client set: a
    # full-state digest and a share multicast per executed batch, reads
    # served without consensus, global sync idle.
    Workload(
        name="read-heavy",
        num_zones=3, clients_per_zone=40, global_fraction=0.0,
        read_fraction=0.9, residents_per_zone=500,
        warmup_ms=100.0, measure_ms=100.0),
    # The only workload with client retransmission and view change; two
    # untouched zones as control. No migrations: with them a dead sync
    # leader makes the run chaotic (README, Findings).
    Workload(
        name="failover",
        num_zones=3, clients_per_zone=6, global_fraction=0.0,
        crash_primary_at_ms=250.0, warmup_ms=150.0, measure_ms=1150.0),
)}


@dataclass
class Built:
    """A deployment ready for ``sim.run(until=workload.end_ms)``."""

    deployment: object
    driver: ClosedLoopDriver
    monitor: ProtocolMonitor


def build(workload: Workload, seed: int) -> Built:
    """Build the deployment, attach the monitor, seed residents, arm the
    clients and schedule the fault. Nothing has run yet on return."""
    crash_ms = workload.crash_primary_at_ms
    config = ZiziphusConfig(
        num_zones=workload.num_zones, f=1, seed=seed,
        pbft=BENCH_PBFT if crash_ms is None else CHAOS_PBFT,
        sync=BENCH_SYNC, migration=BENCH_MIGRATION,
        use_threshold_signatures=True)
    if workload.read_fraction > 0:
        config.read = ReadConfig(enabled=True)
        config.read_fraction = workload.read_fraction
    deployment = build_ziziphus(config)
    # Monitor-only bus, as `run_point` attaches by default: checkers ride
    # on emit(), the histogram/span tier stays off.
    obs = Instrumentation(enabled=True, metrics=False)
    obs.attach(deployment)
    monitor = ProtocolMonitor.attach(
        obs, deployment, config=MonitorConfig(stall_timeout_ms=STALE_MS))
    driver = ClosedLoopDriver(
        deployment,
        WorkloadMix(global_fraction=workload.global_fraction,
                    read_fraction=workload.read_fraction),
        clients_per_zone=workload.clients_per_zone, seed=seed)
    for zone_id in deployment.zone_ids:
        for node in deployment.zone_nodes(zone_id):
            for i in range(workload.residents_per_zone):
                config.seed_client(node.app, f"{zone_id}r{i}")
    if crash_ms is not None:
        for client in deployment.clients.values():
            client.retransmit_ms = CHAOS_RETRANSMIT_MS
        deployment.sim.schedule(crash_ms, deployment.primary_of("z0").crash)
    driver.start()
    return Built(deployment, driver, monitor)


def shortened(workload: Workload, measure_ms: float) -> Workload:
    """The same workload with a shorter measured window (``--quick``)."""
    return replace(workload, measure_ms=min(workload.measure_ms, measure_ms))
