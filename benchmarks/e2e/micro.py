"""Layer microbenches: calls into public functions, timed in isolation.

Every value is operations per host second, best of ``--repeats``. They
say how fast one layer is on its own; only the workloads in ``run.py``
say what that is worth end to end. Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench.perf import perf_report
from repro.errors import ProtocolError
from repro.messages.base import decode_message, encode_message
from repro.obs.bus import Instrumentation
from repro.obs.monitor import ProtocolMonitor
from repro.sim.events import Simulator
from repro.sim.latency import Region
from repro.sim.network import Network
from repro.sim.process import Process
from repro.storage.kvstore import KVStore

import workloads

#: ``repro perf`` benches reported here under ``micro.<name>_ops_s``.
PERF_BENCHES = ("sim_events", "digest", "cert_validate",
                "threshold_validate")
CODEC_ROUNDS = 200
MONITOR_ROUNDS = 20
STATE_DIGEST_N = 200
NET_MESSAGES = 20_000


def capture(seed: int = 7) -> tuple[list, list, object]:
    """Traffic of a short mixed run: one delivered message of every wire
    type it sent, every bus event, and the monitor's topology."""
    workload = workloads.Workload(
        name="capture", num_zones=3, clients_per_zone=4,
        global_fraction=0.3, read_fraction=0.3, warmup_ms=0.0,
        measure_ms=600.0)
    built = workloads.build(workload, seed)
    by_type: dict[str, object] = {}
    events: list[tuple] = []

    def tap(deliver):
        def tapped(sender, message):
            payload = getattr(message, "payload", message)
            by_type.setdefault(type(payload).__name__, message)
            deliver(sender, message)
        return tapped

    for process in (*built.deployment.nodes.values(),
                    *built.deployment.clients.values()):
        process.deliver = tap(process.deliver)
    on_event = built.monitor.on_event
    built.monitor.on_event = lambda *event: (events.append(event),
                                             on_event(*event))
    built.deployment.sim.run(until=workload.end_ms)
    return list(by_type.values()), events, built.monitor.topology


def best_ops_s(repeats: int, operations: int, body) -> float:
    """Best of ``repeats`` timings of ``body()``, as operations/s."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        body()
        best = min(best, time.perf_counter() - started)
    return operations / best


def round_trips(message) -> bool:
    try:
        return decode_message(encode_message(message)) == message
    except ProtocolError:
        return False


def codec(samples: list, repeats: int) -> dict[str, float]:
    # Live EndorsePrePrepare payloads carry context types the registry
    # does not list, so the codec cannot decode them (README, Findings).
    wires = [encode_message(message) for message in samples
             if round_trips(message)]
    operations = CODEC_ROUNDS * len(wires)
    decode = best_ops_s(repeats, operations, lambda: [
        decode_message(wire) for _ in range(CODEC_ROUNDS) for wire in wires])
    # encode_message memoises on the instance, so every timed call gets
    # an instance that has never been encoded.
    encode = 0.0
    for _ in range(repeats):
        fresh = [decode_message(wire)
                 for _ in range(CODEC_ROUNDS) for wire in wires]
        started = time.perf_counter()
        for message in fresh:
            encode_message(message)
        encode = max(encode, operations / (time.perf_counter() - started))
    return {"micro.codec_encode_ops_s": encode,
            "micro.codec_decode_ops_s": decode,
            "micro.codec_wire_types": len(wires)}


def state_digest_1k(repeats: int) -> float:
    store = KVStore()
    for i in range(1000):
        store.put(f"account:z0r{i}", 10_000 + i)
    return best_ops_s(repeats, STATE_DIGEST_N, lambda: [
        store.state_digest() for _ in range(STATE_DIGEST_N)])


def monitor_events(events: list, topology, repeats: int) -> float:
    def replay():
        for _ in range(MONITOR_ROUNDS):
            monitor = ProtocolMonitor(topology=topology)
            for event in events:
                monitor.on_event(*event)
    return best_ops_s(repeats, MONITOR_ROUNDS * len(events), replay)


class _Sink(Process):
    def on_message(self, sender, message):
        pass


def net_send_deliver(message, repeats: int) -> float:
    def body():
        sim = Simulator()
        network = Network(sim, obs=Instrumentation())
        for node_id in ("a", "b"):
            network.register(_Sink(sim, node_id), Region.CALIFORNIA)
        for _ in range(NET_MESSAGES):
            network.send("a", "b", message)
        sim.run()
    return best_ops_s(repeats, NET_MESSAGES, body)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    repeats = parser.parse_args(argv).repeats
    samples, events, topology = capture()
    out = {f"micro.{name}_ops_s": bench["value"] for name, bench in
           perf_report(repeats, PERF_BENCHES)["benches"].items()}
    out.update(codec(samples, repeats))
    out["micro.state_digest_1k_ops_s"] = state_digest_1k(repeats)
    out["micro.monitor_event_ops_s"] = monitor_events(events, topology,
                                                      repeats)
    out["micro.net_send_deliver_ops_s"] = net_send_deliver(samples[0],
                                                           repeats)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
