"""Simulated wide-area message network.

The network owns the mapping from node id to (:class:`Process`, region),
computes per-message one-way latencies from the :class:`LatencyModel`, and
applies fault-injection rules: crashed endpoints, network partitions, and
probabilistic per-link drops. Delivery order between a pair of nodes is not
guaranteed (messages race, as in a real asynchronous network), but the whole
schedule is deterministic for a fixed seed.

All traffic accounting flows through the instrumentation bus
(:class:`~repro.obs.bus.Instrumentation`); :class:`NetworkStats` survives
as a thin read-only view over the bus counters so existing call sites
(``network.stats.sent`` etc.) keep working.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable

from repro.errors import ConfigurationError
from repro.obs.bus import Instrumentation
from repro.sim.events import Simulator
from repro.sim.latency import LatencyModel, Region
from repro.sim.process import Process
from repro.sim.rng import derive_rng

__all__ = ["Network", "NetworkStats"]


class NetworkStats:
    """Read-only counter view describing traffic that crossed the network.

    Reads live through ``network.obs``, so retroactively attaching a
    shared bus (``Instrumentation.attach``) keeps the view working.
    """

    __slots__ = ("_network",)

    def __init__(self, network: "Network") -> None:
        self._network = network

    @property
    def sent(self) -> int:
        """Messages handed to the network for transmission."""
        return self._network.obs.value("net.sent")

    @property
    def delivered(self) -> int:
        """Messages scheduled for delivery at their destination."""
        return self._network.obs.value("net.delivered")

    @property
    def dropped(self) -> int:
        """Messages lost to faults or unknown destinations."""
        return self._network.obs.value("net.dropped")

    @property
    def wan_sent(self) -> int:
        """Delivered messages that crossed a region boundary."""
        return self._network.obs.value("net.wan_sent")

    @property
    def by_type(self) -> Counter:
        """Per-payload-type send counts."""
        return self._network.obs.type_counters["net.msg"]

    def snapshot(self) -> dict[str, int]:
        """Return the scalar counters as a plain dict."""
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "wan_sent": self.wan_sent,
        }


class Network:
    """Latency-injecting message bus between registered processes."""

    def __init__(self, sim: Simulator, latency: LatencyModel | None = None,
                 seed: int = 0, obs: Instrumentation | None = None) -> None:
        self.sim = sim
        self.latency = latency or LatencyModel()
        self._rng = derive_rng(seed, "network")
        self._procs: dict[str, Process] = {}
        self._regions: dict[str, Region] = {}
        self._partition: list[frozenset[str]] | None = None
        self._drop_rate: dict[tuple[str, str], float] = {}
        self._disconnected: set[str] = set()
        #: The instrumentation bus; the simulator's by default.
        self.obs = obs or sim.obs
        self.stats = NetworkStats(self)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(self, process: Process, region: Region) -> None:
        """Attach a process to the network in the given region."""
        if process.node_id in self._procs:
            raise ConfigurationError(f"duplicate node id {process.node_id!r}")
        self._procs[process.node_id] = process
        self._regions[process.node_id] = region
        process.obs = self.obs

    def process(self, node_id: str) -> Process:
        """Return the registered process for ``node_id``."""
        return self._procs[node_id]

    def region_of(self, node_id: str) -> Region:
        """Return the region a node was registered in."""
        return self._regions[node_id]

    def move(self, node_id: str, region: Region) -> None:
        """Relocate a node to another region (simulated client mobility)."""
        if node_id not in self._procs:
            raise ConfigurationError(f"unknown node {node_id!r}")
        self._regions[node_id] = region
        self.obs.emit(self.sim.now, "net.move", node=node_id,
                      region=region.name)

    @property
    def node_ids(self) -> list[str]:
        """All registered node ids, in registration order."""
        return list(self._procs)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def set_partition(self, groups: Iterable[Iterable[str]] | None) -> None:
        """Partition the network: messages across groups are dropped.

        Pass ``None`` to heal the partition. Nodes not named in any group
        are unreachable from every group. Messages already in flight when
        the partition changes are unaffected: link rules apply at *send*
        time.
        """
        if groups is None:
            self._partition = None
        else:
            self._partition = [frozenset(g) for g in groups]
        self.obs.emit(self.sim.now, "net.partition",
                      groups=[sorted(g) for g in self._partition or []])

    def set_drop_rate(self, src: str, dst: str, probability: float) -> None:
        """Drop messages from ``src`` to ``dst`` with the given probability.

        A probability of ``0.0`` *removes* the rule, so healed links stop
        paying the per-message RNG draw entirely.
        """
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError("drop probability must be in [0, 1]")
        if probability == 0.0:
            self._drop_rate.pop((src, dst), None)
        else:
            self._drop_rate[(src, dst)] = probability
        self.obs.emit(self.sim.now, "net.drop_rate", src=src, dst=dst,
                      probability=probability)

    def set_link_drop(self, a: str, b: str, probability: float) -> None:
        """Symmetric :meth:`set_drop_rate`: apply the rule in both
        directions of the ``a``–``b`` link. ``0.0`` removes both rules
        (heals the link), exactly like the directional form.
        """
        self.set_drop_rate(a, b, probability)
        self.set_drop_rate(b, a, probability)

    def disconnect(self, node_id: str) -> None:
        """Drop all traffic to and from a node (models link failure)."""
        self._disconnected.add(node_id)
        self.obs.emit(self.sim.now, "net.disconnect", node=node_id)

    def reconnect(self, node_id: str) -> None:
        """Undo :meth:`disconnect`."""
        self._disconnected.discard(node_id)
        self.obs.emit(self.sim.now, "net.reconnect", node=node_id)

    def clear_faults(self) -> None:
        """Heal everything: partition, drop rules, and disconnections.

        Nodes removed via :meth:`disconnect` are restored (no separate
        :meth:`reconnect` needed). Process-level state is deliberately
        untouched: a node crashed via ``Process.crash()`` stays crashed
        until ``recover()`` — crashing is a node fault, not a network
        fault.
        """
        self._partition = None
        self._drop_rate.clear()
        self._disconnected.clear()
        self.obs.emit(self.sim.now, "net.clear_faults")

    def _linked(self, src: str, dst: str) -> bool:
        if src in self._disconnected or dst in self._disconnected:
            return False
        if self._partition is not None:
            src_group = next((g for g in self._partition if src in g), None)
            if src_group is None or dst not in src_group:
                return False
        rate = self._drop_rate.get((src, dst), 0.0)
        if rate and self._rng.random() < rate:
            return False
        return True

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, message: Any) -> None:
        """Send ``message`` from ``src`` to ``dst`` with simulated latency."""
        self.multicast(src, (dst,), message)

    def multicast(self, src: str, dsts: Iterable[str], message: Any) -> None:
        """Send ``message`` from ``src`` to every node in ``dsts``.

        Each link pays its own fault rules, latency draw and delivery
        push, in ``dsts`` order; the payload-type name is resolved and
        the traffic counters are bumped once per fan-out. The fault
        tables are consulted only while one of them holds a rule.
        """
        obs = self.obs
        sim = self.sim
        now = sim.now
        procs = self._procs
        regions = self._regions
        latency = self.latency
        jitter = latency.jitter
        faulty = (self._disconnected or self._drop_rate
                  or self._partition is not None)
        payload_type = type(getattr(message, "payload", message)).__name__
        sent = delivered = wan_sent = 0
        for dst in dsts:
            sent += 1
            target = procs.get(dst)
            if target is None or (faulty and not self._linked(src, dst)):
                obs.count("net.dropped")
                obs.emit(now, "net.drop", node=src, dst=dst, msg=payload_type,
                         reason="unknown-destination" if target is None
                         else "fault")
                continue
            dst_region = regions[dst]
            src_region = regions.get(src, dst_region)
            wan = src_region != dst_region
            if wan:
                wan_sent += 1
                delay = latency.rtt_ms(src_region, dst_region) / 2.0
            else:
                delay = latency.lan_rtt_ms / 2.0
            if jitter > 0:
                # One-way latency is half the RTT under a uniform
                # multiplicative jitter in [1 - jitter, 1 + jitter].
                delay *= 1.0 + self._rng.uniform(-jitter, jitter)
            delivered += 1
            if obs.metrics:
                obs.observe("net.latency_ms", delay)
                if wan:
                    obs.observe("net.wan_latency_ms", delay)
            if obs.recording:
                # Per-message trace rows only: the conformance monitor has
                # no net.* checker, so monitor-only runs skip building them.
                obs.emit(now, "net.send", node=src, dst=dst,
                         msg=payload_type, delay_ms=round(delay, 6), wan=wan)
            sim.post(now + delay, target.deliver, (src, message))
        if sent:
            obs.count("net.sent", sent)
            obs.count_type("net.msg", payload_type, sent)
        if wan_sent:
            obs.count("net.wan_sent", wan_sent)
        if delivered:
            obs.count("net.delivered", delivered)
