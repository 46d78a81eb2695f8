"""Deterministic chaos-campaign runner.

Executes one :class:`~repro.chaos.scenario.Scenario` (or a whole
campaign) against a live Ziziphus deployment on the discrete-event
simulator:

1. build the deployment and closed-loop workload exactly like the bench
   runner, but on chaos-scale protocol timers (fail-over and retry
   timeouts short enough that recovery fits a 4-second episode);
2. schedule every :class:`FaultAction` as a simulator event, resolving
   symbolic targets (``primary:z0``, the ``"*"`` partition group, zone
   ids to their member nodes *and currently-homed clients*) at fire
   time;
3. arm one liveness *probe* per fault-touched zone at the scenario's
   last heal (or last fault, when nothing heals): the probe clears when
   a request that *started* after the probe armed completes in that
   zone, and the conformance monitor's watchdog flags it as a stall
   otherwise — this is what makes a silently dead zone a detected
   violation rather than a quiet row of zeros;
4. judge the outcome with the :class:`ProtocolMonitor` as oracle
   (``safe`` = clean, ``violation`` = flagged) and compare the faulty
   run's throughput against a fault-free *twin* on the same seed and
   workload.

Everything is seeded through :func:`repro.sim.rng.derive_rng` (via the
deployment and driver), so one ``(campaign, seed)`` pair always yields a
byte-identical resilience report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.metrics import Metrics, compute_metrics
from repro.bench.twin import TwinComparison, compare_to_twin
from repro.chaos.campaign import campaign as lookup_campaign
from repro.chaos.scenario import (PRIMARY_PREFIX, REST_GROUP, FaultAction,
                                  Scenario)
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

__all__ = ["ScenarioResult", "CampaignResult", "run_scenario",
           "run_campaign", "STALL_TIMEOUT_MS"]

#: Chaos-scale protocol timers: fail-over, retransmission, and global
#: retry paths must all fit inside a 4-second episode, so every timeout
#: is far below the bench profile's saturation-tolerant 8 s.
_CHAOS_PBFT = PBFTConfig(batch_size=8, batch_timeout_ms=1.0,
                         request_timeout_ms=250.0,
                         view_change_timeout_ms=500.0,
                         checkpoint_period=32, water_mark_window=1024)
_CHAOS_SYNC = SyncConfig(stable_leader=True, checkpoint_on_migration=False,
                         global_batch_size=8, global_batch_timeout_ms=5.0,
                         commit_timeout_ms=1_000.0, phase_timeout_ms=1_000.0,
                         watch_timeout_ms=800.0)
_CHAOS_MIGRATION = MigrationConfig(state_timeout_ms=600.0,
                                   watch_timeout_ms=800.0)
#: Client retransmission cadence during chaos runs (the 4 s default
#: would outlast the whole episode).
_CLIENT_RETRANSMIT_MS = 400.0
#: Watchdog threshold: an uncleared probe (or any open protocol item)
#: at least this old at the end of the run is a stall. Probes arm no
#: later than 2400 ms into a 4000 ms run, so a dead zone always ages
#: past this before ``finish()``.
STALL_TIMEOUT_MS = 1_500.0
#: Flight-recorder ring size per scenario: the last N bus events kept
#: for post-mortem dumps when a scenario diverges (repro.obs.flight).
FLIGHT_CAPACITY = 4_096


@dataclass
class ScenarioResult:
    """Verdict and measurements for one executed scenario."""

    scenario: Scenario
    #: What the oracle saw: ``"safe"`` (monitor clean) or ``"violation"``.
    observed: str
    #: ``"pass"`` when observed matches the declaration (and, for safe
    #: scenarios, recovery stayed within bounds), else ``"fail"``.
    verdict: str
    #: Human-readable reasons when the verdict is ``"fail"``.
    reasons: list[str]
    #: Violation counts by kind (empty for clean runs).
    violation_kinds: dict[str, int]
    #: Per-probed-zone recovery latency after the last heal (None for a
    #: probe that never cleared).
    recovery_ms: dict[str, float | None]
    metrics: Metrics
    twin: TwinComparison
    #: Path of the flight-recorder dump written for a failing scenario
    #: (None when the scenario passed or no dump directory was given).
    flight_dump: str | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def recovery_max_ms(self) -> float | None:
        """Worst cleared-probe recovery latency (None when no probe
        cleared or none was armed)."""
        cleared = [v for v in self.recovery_ms.values() if v is not None]
        return max(cleared) if cleared else None

    def as_dict(self) -> dict:
        recovery_max = self.recovery_max_ms
        out = {
            "scenario": self.scenario.as_dict(),
            "observed": self.observed,
            "verdict": self.verdict,
            "reasons": list(self.reasons),
            "violations": {
                "count": sum(self.violation_kinds.values()),
                "kinds": dict(sorted(self.violation_kinds.items())),
            },
            "recovery_ms": {zone: (round(v, 3) if v is not None else None)
                            for zone, v in sorted(self.recovery_ms.items())},
            "recovery_max_ms": (round(recovery_max, 3)
                                if recovery_max is not None else None),
            "completed": self.metrics.completed,
            "twin": self.twin.as_dict(),
        }
        if self.flight_dump is not None:
            # Key present only on dumped (failing) scenarios, so passing
            # reports stay byte-identical to pre-flight-recorder runs.
            out["flight_dump"] = self.flight_dump
        return out


@dataclass
class CampaignResult:
    """All scenario results of one campaign run."""

    name: str
    seed: int
    num_zones: int
    f: int
    backend: str = "default"
    results: list[ScenarioResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> list[ScenarioResult]:
        return [r for r in self.results if not r.passed]


class _ChaosInjector:
    """Schedules a scenario's actions and probes onto one deployment."""

    def __init__(self, deployment, driver: ClosedLoopDriver,
                 obs: Instrumentation, scenario: Scenario) -> None:
        self.deployment = deployment
        self.driver = driver
        self.obs = obs
        self.scenario = scenario
        #: zone -> probe arm time, once the arm event has fired.
        self.armed: dict[str, float] = {}
        #: zone -> recovery latency (clear time minus arm time).
        self.recovery: dict[str, float | None] = {}

    # -- symbolic-target resolution (at fire time) ---------------------
    def _resolve_node(self, target: str) -> str:
        if target.startswith(PRIMARY_PREFIX):
            zone = target[len(PRIMARY_PREFIX):]
            return self.deployment.primary_of(zone).node_id
        return target

    def _zone_group_ids(self, zones: tuple[str, ...]) -> list[str]:
        """A partition group named by zones: member nodes plus every
        client currently homed in one of them."""
        ids: list[str] = []
        for zone in zones:
            ids.extend(self.deployment.directory.zone(zone).members)
        ids.extend(cid for cid, zone in self.driver.zone_of_client.items()
                   if zone in zones)
        return ids

    def _node_groups(self, groups) -> list[list[str]]:
        """Expand a ``partition-nodes`` spec, resolving primaries and
        the ``"*"`` rest-group (everyone not named elsewhere, clients
        included)."""
        named: set[str] = set()
        resolved: list[list[str]] = []
        rest_index: int | None = None
        for index, group in enumerate(groups):
            if group == (REST_GROUP,):
                rest_index = index
                resolved.append([])
                continue
            ids = [self._resolve_node(member) for member in group]
            named.update(ids)
            resolved.append(ids)
        if rest_index is not None:
            resolved[rest_index] = [
                node_id for node_id in self.deployment.network.node_ids
                if node_id not in named]
        return resolved

    # -- action application --------------------------------------------
    def _apply(self, action: FaultAction) -> None:
        deployment = self.deployment
        network = deployment.network
        now = deployment.sim.now
        detail: dict = {}
        if action.kind == "set-behavior":
            node = self._resolve_node(action.node)
            deployment.set_behavior(node, action.behavior)
            detail = {"target": node, "behavior": action.behavior}
        elif action.kind == "crash":
            node = self._resolve_node(action.node)
            deployment.nodes[node].crash()
            detail = {"target": node}
        elif action.kind == "recover":
            node = self._resolve_node(action.node)
            deployment.nodes[node].recover()
            detail = {"target": node}
        elif action.kind == "disconnect":
            node = self._resolve_node(action.node)
            network.disconnect(node)
            detail = {"target": node}
        elif action.kind == "reconnect":
            node = self._resolve_node(action.node)
            network.reconnect(node)
            detail = {"target": node}
        elif action.kind == "partition-zones":
            groups = [self._zone_group_ids(g) for g in action.groups]
            network.set_partition(groups)
            detail = {"groups": [sorted(g) for g in groups]}
        elif action.kind == "partition-nodes":
            groups = self._node_groups(action.groups)
            network.set_partition(groups)
            detail = {"groups": [sorted(g) for g in groups]}
        elif action.kind == "heal-partition":
            network.set_partition(None)
        elif action.kind == "link-drop":
            a = self._resolve_node(action.node)
            b = self._resolve_node(action.peer)
            network.set_link_drop(a, b, action.probability)
            detail = {"target": a, "peer": b,
                      "probability": action.probability}
        elif action.kind == "clear-faults":
            network.clear_faults()
        else:  # pragma: no cover - Scenario.validate rejects these
            raise ConfigurationError(f"unknown action kind {action.kind!r}")
        self.obs.emit(now, "chaos.action", node="chaos",
                      scenario=self.scenario.name, action=action.kind,
                      heal=action.heals, **detail)

    # -- liveness probes -----------------------------------------------
    def _static_zone(self, target: str) -> str:
        """Zone of a (possibly symbolic) node target, without resolving
        which concrete node ``primary:<zone>`` means."""
        if target.startswith(PRIMARY_PREFIX):
            return target[len(PRIMARY_PREFIX):]
        return self.deployment.directory.zone_of(target)

    def _affected_zones(self) -> list[str]:
        """Zones any fault action touches (probe targets), sorted."""
        zones: set[str] = set()
        for action in self.scenario.actions:
            if action.heals and action.kind != "set-behavior":
                continue
            if action.kind in ("set-behavior", "crash", "disconnect"):
                zones.add(self._static_zone(action.node))
            elif action.kind == "partition-zones":
                for group in action.groups:
                    zones.update(group)
            elif action.kind == "partition-nodes":
                for group in action.groups:
                    zones.update(self._static_zone(member)
                                 for member in group
                                 if member != REST_GROUP)
            elif action.kind == "link-drop":
                zones.add(self._static_zone(action.node))
                zones.add(self._static_zone(action.peer))
        return sorted(zones)

    def _arm_probe(self, zone: str) -> None:
        now = self.deployment.sim.now
        self.armed[zone] = now
        self.obs.emit(now, "liveness.probe", node=zone, probe=zone,
                      phase="post-heal-progress"
                      if self.scenario.heal_times() else "zone-progress")

    def _on_completion(self, client_id: str) -> None:
        """Completion hook: clear the client's home-zone probe once a
        request that started after the probe armed completes there."""
        zone = self.driver.zone_of_client.get(client_id)
        armed_at = self.armed.get(zone)
        if armed_at is None or self.recovery.get(zone) is not None:
            return
        client = self.deployment.clients[client_id]
        record = client.completed[-1]
        if record.started_at < armed_at:
            return
        now = self.deployment.sim.now
        self.recovery[zone] = now - armed_at
        self.obs.emit(now, "liveness.clear", node=zone, probe=zone)
        self.obs.emit(now, "chaos.recovered", node=zone,
                      scenario=self.scenario.name,
                      recovery_ms=round(now - armed_at, 6))

    # -- wiring ---------------------------------------------------------
    def schedule(self) -> None:
        """Install every action and probe on the simulator, and chain
        the probe-clearing hook onto each client's completion callback
        (call after ``driver.start()``)."""
        sim = self.deployment.sim
        for action in self.scenario.actions:
            sim.schedule(action.at_ms - sim.now, self._apply, action)
        heals = self.scenario.heal_times()
        if heals:
            probe_at = heals[-1]
        else:
            probe_at = max(a.at_ms for a in self.scenario.actions)
        for zone in self._affected_zones():
            self.recovery[zone] = None
            sim.schedule(probe_at - sim.now, self._arm_probe, zone)
        for client_id, client in self.deployment.clients.items():
            inner = client.on_complete

            def chained(record, cid=client_id, inner=inner):
                if inner is not None:
                    inner(record)
                self._on_completion(cid)

            client.on_complete = chained


def _build(scenario: Scenario, seed: int, num_zones: int, f: int,
           backend: str = "default"):
    config = ZiziphusConfig(num_zones=num_zones, f=f, seed=seed,
                            pbft=_CHAOS_PBFT, sync=_CHAOS_SYNC,
                            migration=_CHAOS_MIGRATION,
                            read=ReadConfig(
                                enabled=scenario.read_fraction > 0),
                            use_threshold_signatures=True,
                            backend=backend)
    return build_ziziphus(config)


def _make_driver(deployment, scenario: Scenario, seed: int):
    driver = ClosedLoopDriver(
        deployment, WorkloadMix(global_fraction=scenario.global_fraction,
                                read_fraction=scenario.read_fraction),
        clients_per_zone=scenario.clients_per_zone, seed=seed)
    for client in deployment.clients.values():
        client.retransmit_ms = _CLIENT_RETRANSMIT_MS
    return driver


def _run_twin(scenario: Scenario, seed: int, num_zones: int,
              f: int, backend: str = "default") -> Metrics:
    """Fault-free twin: same build, same workload, no injector."""
    deployment = _build(scenario, seed, num_zones, f, backend)
    driver = _make_driver(deployment, scenario, seed)
    driver.start()
    deployment.sim.run(until=scenario.duration_ms)
    return compute_metrics(driver.records, 0.0, scenario.duration_ms)


def _judge(scenario: Scenario, monitor: ProtocolMonitor,
           injector: _ChaosInjector, metrics: Metrics) -> tuple:
    observed = "safe" if monitor.clean else "violation"
    reasons: list[str] = []
    if observed != scenario.expect:
        if scenario.expect == "safe":
            kinds = sorted({v.kind for v in monitor.violations})
            reasons.append("monitor flagged a within-budget run: "
                           + ", ".join(kinds))
        else:
            reasons.append("over-budget adversary went undetected")
    if scenario.expect == "safe":
        if metrics.completed == 0:
            reasons.append("no request completed at all")
        uncleared = sorted(z for z, v in injector.recovery.items()
                           if v is None)
        if uncleared:
            reasons.append("probe(s) never cleared: "
                           + ", ".join(uncleared))
        slow = {zone: value for zone, value in injector.recovery.items()
                if value is not None and value > scenario.max_recovery_ms}
        if slow:
            reasons.append("recovery exceeded "
                           f"{scenario.max_recovery_ms:.0f}ms: "
                           + ", ".join(f"{z}={v:.0f}ms"
                                       for z, v in sorted(slow.items())))
    verdict = "pass" if not reasons else "fail"
    return observed, verdict, reasons


def run_scenario(scenario: Scenario, seed: int = 1, num_zones: int = 3,
                 f: int = 1, twin: Metrics | None = None,
                 backend: str = "default",
                 flight_dir: str | None = None) -> ScenarioResult:
    """Execute one scenario and judge it against its declaration.

    ``flight_dir``, if given, is where a failing scenario dumps its
    flight-recorder ring (the last :data:`FLIGHT_CAPACITY` bus events)
    as ``flight-<scenario>.jsonl`` for post-mortem analysis. The ring
    itself is always on — recording stays off, so the only per-event
    cost is one tuple store.
    """
    scenario.validate(f)
    if twin is None:
        twin = _run_twin(scenario, seed, num_zones, f, backend)
    deployment = _build(scenario, seed, num_zones, f, backend)
    obs = Instrumentation(enabled=True, recording=False, metrics=False,
                          flight=FLIGHT_CAPACITY)
    obs.attach(deployment)
    monitor = ProtocolMonitor.attach(
        obs, deployment,
        config=MonitorConfig(stall_timeout_ms=STALL_TIMEOUT_MS))
    driver = _make_driver(deployment, scenario, seed)
    driver.start()
    injector = _ChaosInjector(deployment, driver, obs, scenario)
    injector.schedule()
    obs.emit(0.0, "chaos.scenario", node="chaos", scenario=scenario.name,
             budget=scenario.budget, expect=scenario.expect,
             actions=len(scenario.actions))
    deployment.sim.run(until=scenario.duration_ms)
    monitor.finish(scenario.duration_ms)
    obs.end_ms = scenario.duration_ms
    metrics = compute_metrics(driver.records, 0.0, scenario.duration_ms)

    observed, verdict, reasons = _judge(scenario, monitor, injector,
                                        metrics)
    kinds: dict[str, int] = {}
    for violation in monitor.violations:
        kinds[violation.kind] = kinds.get(violation.kind, 0) + 1
    flight_dump = None
    if verdict == "fail" and flight_dir is not None:
        from pathlib import Path
        path = Path(flight_dir) / f"flight-{scenario.name}.jsonl"
        obs.flight.dump_jsonl(path, scenario=scenario.name, seed=seed,
                              backend=backend,
                              reason="; ".join(reasons))
        flight_dump = str(path)
    return ScenarioResult(scenario=scenario, observed=observed,
                          verdict=verdict, reasons=reasons,
                          violation_kinds=kinds,
                          recovery_ms=dict(injector.recovery),
                          metrics=metrics,
                          twin=compare_to_twin(metrics, twin),
                          flight_dump=flight_dump)


def _scenario_job(task: tuple) -> ScenarioResult:
    """Worker: run one campaign scenario in a separate process.

    The task names the scenario by ``(campaign, index)`` so only plain
    data crosses the process boundary; the worker rebuilds everything
    (its own fault-free twin included) from the shared seed. Simulations
    are deterministic, so the result is value-identical to the serial
    path — which is what keeps ``--jobs N`` reports byte-identical.
    """
    name, index, seed, num_zones, f, backend, flight_dir = task
    scenario = lookup_campaign(name)[index]
    return run_scenario(scenario, seed=seed, num_zones=num_zones, f=f,
                        backend=backend, flight_dir=flight_dir)


def run_campaign(name: str = "default", seed: int = 1, num_zones: int = 3,
                 f: int = 1, jobs: int = 1, backend: str = "default",
                 flight_dir: str | None = None) -> CampaignResult:
    """Run every scenario of a campaign, sharing fault-free twins.

    Serially (``jobs <= 1``), twin runs are cached per workload shape
    (clients per zone, global fraction, duration): scenarios differing
    only in their fault schedule compare against the same baseline.
    With ``jobs > 1`` the scenarios fan out over a process pool, each
    worker recomputing its own twin; determinism makes the merged
    report byte-identical to a serial run.
    """
    scenarios = lookup_campaign(name)
    result = CampaignResult(name=name, seed=seed, num_zones=num_zones, f=f,
                            backend=backend)
    if jobs > 1 and len(scenarios) > 1:
        from concurrent.futures import ProcessPoolExecutor

        from repro.bench.parallel import pool_context
        tasks = [(name, index, seed, num_zones, f, backend, flight_dir)
                 for index in range(len(scenarios))]
        workers = min(jobs, len(tasks))
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=pool_context()) as pool:
            result.results.extend(pool.map(_scenario_job, tasks))
        return result
    twins: dict[tuple, Metrics] = {}
    for scenario in scenarios:
        key = (scenario.clients_per_zone, scenario.global_fraction,
               scenario.read_fraction, scenario.duration_ms)
        if key not in twins:
            twins[key] = _run_twin(scenario, seed, num_zones, f, backend)
        result.results.append(
            run_scenario(scenario, seed=seed, num_zones=num_zones, f=f,
                         twin=twins[key], backend=backend,
                         flight_dir=flight_dir))
    return result
