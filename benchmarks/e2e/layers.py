"""Fold a cProfile of ``sim.run`` into the repo's layers.

A layer is a *module bucket*: every ``.py`` under ``src/repro`` maps to
exactly one. Time spent in C/builtin and stdlib functions (``isinstance``,
``struct.pack``, ``sha256``, ``heappop``, ``hmac.new`` ...) is charged to
the repo module that called them, so the buckets' self shares sum to 1.
"""

from __future__ import annotations

from pathlib import PurePath

#: Exact ``package/module`` matches, tried first.
MODULE_BUCKETS = {
    "sim/events": "sim.events", "sim/network": "sim.network",
    "sim/process": "sim.process", "sim/latency": "sim.latency",
    "sim/rng": "sim.latency",
    "crypto/digest": "crypto.digest", "crypto/keys": "crypto.keys",
    "crypto/certificates": "crypto.certificates",
    "crypto/threshold": "crypto.threshold",
    "messages/base": "messages.base",
    "pbft/replica": "pbft.replica", "pbft/host": "pbft.host",
    "pbft/node": "pbft.host", "pbft/client": "pbft.host",
    "pbft/faults": "pbft.host", "pbft/view_change": "pbft.view_change",
    "pbft/checkpointing": "pbft.checkpointing",
    "core/sync_protocol": "core.sync_protocol",
    "core/endorsement": "core.endorsement",
    "core/migration_protocol": "core.migration_protocol",
    "core/clusters": "core.clusters", "core/client": "core.client",
    "reads/engine": "reads.engine",
    "obs/bus": "obs.bus", "obs/monitor": "obs.monitor",
    # The event-kind registry is consulted once per monitored event.
    "obs/events": "obs.monitor",
    "quorums": "consensus",
}

#: Whole-package fallbacks. Packages that never run inside ``sim.run``
#: are named here too, so that a *new* package is an error rather than
#: silently "other".
PACKAGE_BUCKETS = {
    "sim": "sim.events", "crypto": "crypto.digest",
    "messages": "messages.other", "pbft": "pbft.host",
    "core": "core.other", "consensus": "consensus",
    "reads": "reads.engine", "storage": "storage", "app": "app",
    "obs": "obs.bus", "workload": "workload",
    "analysis": "other", "baselines": "other", "bench": "other",
    "chaos": "other", "cli": "other", "errors": "other",
    "__init__": "other", "__main__": "other",
}

BUCKETS = sorted(set(MODULE_BUCKETS.values()) | set(PACKAGE_BUCKETS.values()))

#: Layer boundaries: ``name -> (module path under repro, function names)``.
#: ``send`` and ``multicast`` are the two public ways into the network.
BOUNDARIES = {
    "crypto.digest.digest": ("crypto/digest", ("digest",)),
    "crypto.keys.sign": ("crypto/keys", ("sign",)),
    "crypto.keys.verify": ("crypto/keys", ("verify",)),
    "crypto.certificates.validate": ("crypto/certificates", ("validate",)),
    "crypto.threshold.validate": ("crypto/threshold", ("validate",)),
    "messages.base.nested_signature_units":
        ("messages/base", ("nested_signature_units",)),
    "sim.network.send": ("sim/network", ("send", "multicast")),
    "sim.process.deliver": ("sim/process", ("deliver",)),
    "storage.kvstore.state_digest": ("storage/kvstore", ("state_digest",)),
    "reads.engine.on_executed": ("reads/engine", ("on_executed",)),
    "obs.monitor.on_event": ("obs/monitor", ("on_event",)),
}


def module_path(filename: str) -> str | None:
    """``.../src/repro/sim/events.py`` -> ``sim/events``; None when the
    file is not part of the ``repro`` package."""
    parts = PurePath(filename).with_suffix("").parts
    if "repro" not in parts:
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    return "/".join(parts[index + 1:])


def bucket_of(module: str) -> str:
    """The bucket of a ``repro`` module path such as ``sim/events``."""
    if module in MODULE_BUCKETS:
        return MODULE_BUCKETS[module]
    package = module.split("/")[0]
    if package not in PACKAGE_BUCKETS:
        raise KeyError(f"no layer bucket for repro module {module!r}: "
                       "add it to benchmarks/e2e/layers.py")
    return PACKAGE_BUCKETS[package]


def _owner(key, stats, memo, active) -> dict[str, float]:
    """Distribution over buckets that a profiled function's self time is
    charged to: its own bucket for repro code, its callers' (by the time
    each caller's calls took) for everything else."""
    if key in memo:
        return memo[key]
    module = module_path(key[0])
    if module is not None:
        memo[key] = {bucket_of(module): 1.0}
        return memo[key]
    callers = stats[key][4]
    total = sum(c[2] for c in callers.values())
    out: dict[str, float] = {}
    if key in active or not callers or total <= 0:
        return {"other": 1.0}
    active.add(key)
    for caller, (_cc, _nc, tottime, _ct) in callers.items():
        for bucket, weight in _owner(caller, stats, memo, active).items():
            out[bucket] = out.get(bucket, 0.0) + weight * tottime / total
    active.discard(key)
    memo[key] = out
    return out


def fold(stats: dict, commits: int) -> dict[str, float]:
    """Per-layer metrics from ``pstats.Stats(profile).stats``.

    Returns ``<bucket>.self_share`` / ``<bucket>.calls_per_commit`` for
    every bucket, ``<fn>.incl_share`` / ``<fn>.calls_per_commit`` for
    every boundary function, and the profile-derived exact counters.
    """
    total = sum(entry[2] for entry in stats.values())
    self_time = dict.fromkeys(BUCKETS, 0.0)
    calls = dict.fromkeys(BUCKETS, 0)
    boundary_time = dict.fromkeys(BOUNDARIES, 0.0)
    boundary_calls = dict.fromkeys(BOUNDARIES, 0)
    by_site = {(module, fn): name
               for name, (module, fns) in BOUNDARIES.items() for fn in fns}
    memo: dict = {}
    sha256 = sha256_in_digest = total_calls = 0
    for key, (_cc, ncalls, tottime, cumtime, callers) in stats.items():
        filename, _line, function = key
        total_calls += ncalls
        for bucket, weight in _owner(key, stats, memo, set()).items():
            self_time[bucket] += weight * tottime
        module = module_path(filename)
        if module is not None:
            calls[bucket_of(module)] += ncalls
            name = by_site.get((module, function))
            if name is not None:
                boundary_time[name] += cumtime
                boundary_calls[name] += ncalls
        elif "sha256" in function:
            sha256 += ncalls
            sha256_in_digest += sum(
                c[1] for caller, c in callers.items()
                if module_path(caller[0]) == "crypto/digest")
    out: dict[str, float] = {}
    for bucket in BUCKETS:
        out[f"{bucket}.self_share"] = self_time[bucket] / total
        out[f"{bucket}.calls_per_commit"] = calls[bucket] / commits
    for name in BOUNDARIES:
        out[f"{name}.incl_share"] = boundary_time[name] / total
        out[f"{name}.calls_per_commit"] = boundary_calls[name] / commits
    digests = boundary_calls["crypto.digest.digest"]
    out["crypto.sha256_per_commit"] = sha256 / commits
    out["crypto.digest.memo_hit_share"] = \
        1.0 - sha256_in_digest / digests if digests else 0.0
    out["total.calls_per_commit"] = total_calls / commits
    return out
