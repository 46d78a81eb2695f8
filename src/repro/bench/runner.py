"""Experiment runner: build a deployment, drive a workload, measure.

One entry point, :func:`run_point`, covers every protocol in the paper's
evaluation (Ziziphus, flat PBFT, two-level PBFT, Steward) and every knob
the figures sweep (zones, zone size ``f``, clients per zone, workload mix,
zone clusters, backup failures).

Scale note: the DES runs protocol-faithful message flows but at laptop
scale — smaller client counts and sub-second measurement windows than the
paper's EC2 runs. EXPERIMENTS.md records the resulting paper-vs-measured
comparison; the claims under test are the *shapes* (who wins, how things
scale), not absolute ktps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.baselines.flat_pbft import FlatPBFTConfig, build_flat_pbft
from repro.baselines.steward import build_steward
from repro.baselines.two_level_pbft import TwoLevelConfig, build_two_level
from repro.bench.metrics import Metrics, compute_metrics
from repro.core.deployment import ZiziphusConfig, build_ziziphus
from repro.core.migration_protocol import MigrationConfig
from repro.core.sync_protocol import SyncConfig
from repro.errors import ConfigurationError
from repro.obs.bus import Instrumentation
from repro.obs.monitor import MonitorConfig, ProtocolMonitor
from repro.pbft.replica import PBFTConfig
from repro.reads import ReadConfig
from repro.workload.driver import ClosedLoopDriver
from repro.workload.generator import WorkloadMix

__all__ = ["PointSpec", "PointResult", "run_point", "PROTOCOLS"]

PROTOCOLS = ("ziziphus", "flat-pbft", "two-level", "steward")

#: Bench-scale protocol tunables: batching on, failure timers generous so
#: saturation queueing is not mistaken for a faulty primary.
_BENCH_PBFT = PBFTConfig(batch_size=16, batch_timeout_ms=1.0,
                         request_timeout_ms=8_000.0,
                         view_change_timeout_ms=8_000.0,
                         checkpoint_period=512, water_mark_window=4096)
_BENCH_SYNC = SyncConfig(stable_leader=True, checkpoint_on_migration=False,
                         global_batch_size=24, global_batch_timeout_ms=10.0,
                         commit_timeout_ms=8_000.0, phase_timeout_ms=8_000.0,
                         watch_timeout_ms=8_000.0)
_BENCH_MIGRATION = MigrationConfig(state_timeout_ms=8_000.0,
                                   watch_timeout_ms=8_000.0)


@dataclass(frozen=True)
class PointSpec:
    """One experiment point."""

    protocol: str
    num_zones: int = 3
    f: int = 1
    clients_per_zone: int = 50
    global_fraction: float = 0.1
    cross_cluster_fraction: float = 0.0
    #: Fraction of client actions issued as certified reads; > 0 turns
    #: on the watermark machinery (ziziphus protocol only).
    read_fraction: float = 0.0
    #: Must divide ``num_zones`` (every cluster gets the same share).
    num_clusters: int = 1
    backup_failures_per_zone: int = 0
    warmup_ms: float = 300.0
    measure_ms: float = 500.0
    seed: int = 1
    stable_leader: bool = True
    full_prepare: bool = False
    #: The paper's certificate-compression option (§IV.B.1); on by default
    #: in benches, ablated in test_ablation_threshold_sigs.
    use_threshold_signatures: bool = True
    checkpoint_on_migration: bool = False
    batch_size: int = 16
    #: Attach an instrumentation bus (histograms + phase spans); yields
    #: the per-phase latency columns in the metrics.
    instrument: bool = False
    #: Additionally record the full structured event trace (implies
    #: ``instrument``); export via :mod:`repro.obs.export`.
    record_trace: bool = False
    #: Causal transaction tracing (implies ``record_trace``-level
    #: recording): clients mint trace ids and the consensus layers emit
    #: ``trace.link`` events; ``attr.*`` critical-path columns join the
    #: metrics row. Off by default so plain points stay byte-identical.
    causal: bool = False
    #: Attach a :class:`repro.obs.profiler.SimProfiler` to the event
    #: loop (wall-clock self-profiling; see PointResult.profiler).
    profile: bool = False
    #: Queue-depth / utilization sampling cadence (0 disables sampling).
    sample_interval_ms: float = 25.0
    #: Always-on protocol conformance monitor (cheap tier): invariant
    #: checkers fed from the bus; violation counts join the metrics row.
    monitor: bool = True
    #: Watchdog threshold for the monitor's liveness checker.
    stall_timeout_ms: float = 10_000.0
    #: Named consensus backend (ziziphus/steward protocols only).
    backend: str = "default"


@dataclass
class PointResult:
    """Spec plus measured metrics."""

    spec: PointSpec
    metrics: Metrics
    #: The instrumentation bus of the run (None unless the point was
    #: instrumented, recorded, or monitored).
    obs: object | None = None
    #: The finished conformance monitor (None unless ``spec.monitor``).
    monitor: object | None = None
    #: The event-loop self-profiler (None unless ``spec.profile``).
    profiler: object | None = None

    def row(self) -> dict:
        """Flat dict row for report tables."""
        out = {
            "protocol": self.spec.protocol,
            "zones": self.spec.num_zones,
            "clients/zone": self.spec.clients_per_zone,
            "global%": int(self.spec.global_fraction * 100),
        }
        if self.spec.read_fraction:
            out["read%"] = int(self.spec.read_fraction * 100)
        if self.spec.backend != "default":
            out["backend"] = self.spec.backend
        out.update(self.metrics.row())
        return out


def _mix(spec: PointSpec) -> WorkloadMix:
    return WorkloadMix(global_fraction=spec.global_fraction,
                       cross_cluster_fraction=spec.cross_cluster_fraction,
                       read_fraction=spec.read_fraction)


def _pbft_config(spec: PointSpec) -> PBFTConfig:
    return replace(_BENCH_PBFT, batch_size=spec.batch_size)


def _build(spec: PointSpec):
    pbft = _pbft_config(spec)
    if spec.protocol in ("ziziphus", "steward"):
        sync = replace(_BENCH_SYNC, stable_leader=spec.stable_leader,
                       full_prepare_everywhere=spec.full_prepare,
                       checkpoint_on_migration=spec.checkpoint_on_migration)
        config = ZiziphusConfig(
            num_zones=spec.num_zones, f=spec.f,
            num_clusters=spec.num_clusters, seed=spec.seed,
            pbft=pbft, sync=sync, migration=_BENCH_MIGRATION,
            read=ReadConfig(enabled=spec.read_fraction > 0),
            use_threshold_signatures=spec.use_threshold_signatures,
            backend=spec.backend)
        if spec.protocol == "steward":
            return build_steward(config)
        return build_ziziphus(config)
    if spec.backend != "default":
        raise ConfigurationError(
            f"protocol {spec.protocol!r} does not support consensus "
            f"backends (its engine configuration is fixed)")
    if spec.protocol == "flat-pbft":
        return build_flat_pbft(FlatPBFTConfig(
            num_zones=spec.num_zones, f_per_zone=spec.f, seed=spec.seed,
            pbft=pbft))
    if spec.protocol == "two-level":
        return build_two_level(TwoLevelConfig(
            num_zones=spec.num_zones, f=spec.f, seed=spec.seed,
            pbft=pbft, global_pbft=pbft,
            use_threshold_signatures=spec.use_threshold_signatures))
    raise ConfigurationError(f"unknown protocol {spec.protocol!r}")


def _inject_backup_failures(spec: PointSpec, deployment) -> None:
    """Crash ``backup_failures_per_zone`` non-primary nodes in every zone
    (or per region, for flat PBFT), per the Figure 6 methodology."""
    count = max(spec.backup_failures_per_zone, 0)
    for backups in deployment.backups():
        for victim in backups[:count]:
            deployment.nodes[victim].crash()


def run_point(spec: PointSpec) -> PointResult:
    """Run one experiment point and return its metrics."""
    deployment = _build(spec)
    obs = None
    monitor = None
    profiler = None
    instrumented = spec.instrument or spec.record_trace or spec.causal
    if instrumented or spec.monitor:
        # Monitor-only points skip the histogram/span tier (``metrics``):
        # the checkers ride on emit() alone, keeping always-on cheap.
        obs = Instrumentation(enabled=True, recording=spec.record_trace,
                              metrics=instrumented, causal=spec.causal)
        obs.attach(deployment)
        if spec.monitor:
            monitor = ProtocolMonitor.attach(
                obs, deployment,
                config=MonitorConfig(stall_timeout_ms=spec.stall_timeout_ms))
        if instrumented and spec.sample_interval_ms > 0:
            obs.start_sampler(deployment,
                              interval_ms=spec.sample_interval_ms)
    if spec.profile:
        from repro.obs.profiler import SimProfiler
        profiler = SimProfiler()
        deployment.sim.profiler = profiler
    driver = ClosedLoopDriver(deployment, _mix(spec),
                              clients_per_zone=spec.clients_per_zone,
                              seed=spec.seed)
    _inject_backup_failures(spec, deployment)
    driver.start()
    end_ms = spec.warmup_ms + spec.measure_ms
    deployment.sim.run(until=end_ms)
    if monitor is not None:
        monitor.finish(end_ms)
    if obs is not None:
        obs.end_ms = end_ms
    # Phase-breakdown columns only when explicitly instrumented, so the
    # default (monitor-only) rows keep their compact shape.
    metrics = compute_metrics(driver.records, spec.warmup_ms, end_ms,
                              obs=obs if instrumented else None,
                              monitor=monitor)
    if spec.causal and obs is not None:
        # Critical-path attribution columns (p50 per hop) join the
        # phase-breakdown block of the row.
        from repro.obs.causal import attribution_columns
        metrics.phase_breakdown.update(attribution_columns(obs))
    return PointResult(spec=spec, metrics=metrics, obs=obs,
                       monitor=monitor, profiler=profiler)
