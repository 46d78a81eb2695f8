"""Shared test fixtures and helpers."""

from __future__ import annotations

import pytest

from repro.core.deployment import ZiziphusConfig, build_ziziphus
from repro.core.sync_protocol import SyncConfig
from repro.crypto.certificates import QuorumCertificate
from repro.crypto.digest import digest
from repro.messages.base import sign_message
from repro.obs.bus import Instrumentation
from repro.obs.monitor import ProtocolMonitor
from repro.pbft.replica import PBFTConfig


def fast_pbft(**overrides) -> PBFTConfig:
    """PBFT config tuned for fast, deterministic small tests."""
    defaults = dict(batch_size=1, batch_timeout_ms=0.5,
                    request_timeout_ms=150.0, view_change_timeout_ms=300.0,
                    checkpoint_period=64, water_mark_window=512)
    defaults.update(overrides)
    return PBFTConfig(**defaults)


def fast_sync(**overrides) -> SyncConfig:
    """Sync config for tests: no batching delay, short failure timers."""
    defaults = dict(stable_leader=True, global_batch_size=1,
                    global_batch_timeout_ms=0.5, commit_timeout_ms=800.0,
                    phase_timeout_ms=800.0, watch_timeout_ms=400.0,
                    checkpoint_on_migration=False)
    defaults.update(overrides)
    return SyncConfig(**defaults)


def small_ziziphus(num_zones: int = 3, f: int = 1, **config_overrides):
    """A small Ziziphus deployment for integration tests."""
    config_overrides.setdefault("pbft", fast_pbft())
    config_overrides.setdefault("sync", fast_sync())
    config = ZiziphusConfig(num_zones=num_zones, f=f, **config_overrides)
    return build_ziziphus(config)


def drive_to_completion(deployment, client, actions,
                        step_ms: float = 40_000.0,
                        max_steps: int = 20):
    """Submit actions one-by-one (closed loop) and return the records.

    ``actions`` are ``("local", op)`` / ("migrate", zone)`` pairs.
    """
    records = []
    plan = list(actions)

    def advance(record=None):
        if record is not None:
            records.append(record)
        if len(records) < len(plan):
            kind, arg = plan[len(records)]
            if kind == "local":
                client.submit_local(arg)
            else:
                client.submit_migration(arg)

    client.on_complete = advance
    deployment.sim.schedule(0.0, advance)
    for _ in range(max_steps):
        deployment.sim.run(until=deployment.sim.now + step_ms)
        if len(records) >= len(plan):
            break
    return records


# ----------------------------------------------------------------------
# Adversarial receipt tests (cross-zone, cross-cluster): hand-made
# certificates injected straight into a node, judged by the monitor.
# ----------------------------------------------------------------------
def monitored(deployment) -> ProtocolMonitor:
    """Attach the conformance monitor (cheap tier: no trace, no metrics)."""
    obs = Instrumentation(enabled=True, recording=False, metrics=False)
    obs.attach(deployment)
    return ProtocolMonitor.attach(obs, deployment)


def cert_of(deployment, signers, body, covers_body=True):
    """A quorum certificate by ``signers`` over ``body`` (or, with
    ``covers_body=False``, over something else)."""
    if not covers_body:
        body = digest(("something else", body))
    return QuorumCertificate.aggregate(
        body, [deployment.keys.sign(s, body) for s in signers])


def inject(deployment, signer, target, payload, settle_ms=5_000.0):
    """Deliver ``payload`` signed by ``signer`` to ``target``; run on."""
    deployment.network.send(signer, target,
                            sign_message(deployment.keys, signer, payload))
    deployment.run(deployment.sim.now + settle_ms)


def assert_booked(monitor, msg, culprit):
    """The monitor flagged exactly one thing: ``culprit`` relayed an
    invalid certificate on a ``msg`` message."""
    flagged = [(v.kind, v.culprit, v.detail["msg"])
               for v in monitor.violations]
    assert flagged == [("cert-invalid", culprit, msg)]


@pytest.fixture
def ziziphus3():
    """Three-zone, f=1 deployment (the paper's smallest setup)."""
    return small_ziziphus(num_zones=3, f=1)
