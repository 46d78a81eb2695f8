"""Mobile Ziziphus client.

A client issues *local* transactions to its current zone and, when it
moves, a *migration request* (global transaction) to the initiator zone's
primary — the destination zone by default, or the stable-leader zone when
that optimisation is on. Completion requires ``f+1`` matching replies from
one zone: the destination zone after the data migration protocol appends
R(c) (successful migration), or the initiator zone when the migration was
rejected by policy.

Following the paper's evaluation methodology, physical mobility is
simulated: the same client identity simply starts addressing its new zone
once the migration completes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable

from repro.core.zone import ZoneDirectory
from repro.crypto.certificates import CertificateVerifier
from repro.crypto.digest import digest
from repro.crypto.keys import KeyRegistry
from repro.messages.base import Signed, verify_signed
from repro.messages.client import ClientReply, ClientRequest, MigrationRequest
from repro.messages.reads import ReadReply, ReadRequest
from repro.messages.trace import SpanContext, trace_id
from repro.pbft.client import CompletedRequest
from repro.quorums import weak_quorum
from repro.reads import ReadConfig
from repro.sim.events import Simulator
from repro.sim.network import Network
from repro.sim.process import CostModel, Process

__all__ = ["MobileClient"]


class MobileClient(Process):
    """Closed-loop mobile client of a Ziziphus deployment."""

    def __init__(self, sim: Simulator, network: Network, keys: KeyRegistry,
                 client_id: str, directory: ZoneDirectory, home_zone: str,
                 initiator_resolver: Callable[[str, str], str] | None = None,
                 retransmit_ms: float = 4_000.0,
                 read_config: ReadConfig | None = None) -> None:
        super().__init__(sim, client_id,
                         CostModel(base_ms=0.0, verify_ms=0.0))
        self.network = network
        self.keys = keys
        self.directory = directory
        self.current_zone = home_zone
        #: Maps (source_zone, dest_zone) to the initiator zone — the
        #: stable-leader zone for intra-cluster migrations, the destination
        #: zone otherwise. Defaults to the destination zone.
        self.initiator_resolver = initiator_resolver
        self.retransmit_ms = retransmit_ms
        self.timestamp = 0
        self.completed: list[CompletedRequest] = []
        self.on_complete: Callable[[CompletedRequest], None] | None = None
        self.view_hints: dict[str, int] = {}
        self._outstanding: Any = None          # ClientRequest | MigrationRequest
        self._outstanding_zone: str | None = None   # zone whose quorum completes it
        self._started_at = 0.0
        self._replies: dict[bytes, set[str]] = {}
        self._retry_timer = None
        # Certified read path (repro.reads): verified-watermark session
        # vector, in-flight fast-path read, and per-result reply votes.
        self.reads = read_config or ReadConfig()
        self.session: dict[str, int] = {}
        self._verifier = CertificateVerifier(keys)
        self._read_outstanding: ReadRequest | None = None
        self._read_started = 0.0
        self._read_votes: dict[bytes, dict[str, tuple[float, int]]] = {}
        self._read_timer = None
        self._fallback_read = False

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def _primary_hint(self, zone_id: str) -> str:
        zone = self.directory.zone(zone_id)
        return zone.primary(self.view_hints.get(zone_id, 0))

    def _send(self, request: Any, dst: str) -> None:
        envelope = Signed(request, self.keys.sign(self.node_id, digest(request)))
        self.network.send(self.node_id, dst, envelope)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_local(self, operation: tuple) -> None:
        """Issue a local transaction on this client's data in its zone."""
        self.timestamp += 1
        request = ClientRequest(operation=operation, timestamp=self.timestamp,
                                sender=self.node_id)
        self._launch(request, target_zone=self.current_zone)

    def submit_migration(self, dest_zone: str) -> None:
        """Issue a migration request from the current zone to ``dest_zone``.

        The request goes to the initiator zone's primary: the stable-leader
        zone when configured, otherwise the destination zone (§IV.B.1).
        """
        self.timestamp += 1
        operation = ("migrate", self.node_id, self.current_zone, dest_zone)
        request = MigrationRequest(operation=operation,
                                   timestamp=self.timestamp,
                                   sender=self.node_id,
                                   source_zone=self.current_zone,
                                   dest_zone=dest_zone)
        if self.initiator_resolver is not None:
            initiator = self.initiator_resolver(self.current_zone, dest_zone)
        else:
            initiator = dest_zone
        self._launch(request, target_zone=initiator)

    def submit_cross_zone_transfer(self, peer: str, peer_zone: str,
                                   amount: int) -> None:
        """Issue a cross-zone transaction (§IV.B.3): move ``amount`` from
        this client's account to ``peer`` hosted by ``peer_zone``.

        The client's own zone initiates (it is the paying/prepare zone);
        only the two involved zones participate.
        """
        if peer_zone == self.current_zone:
            self.submit_local(("transfer", peer, amount))
            return
        from repro.core.cross_zone import CrossZoneRequest
        from repro.crypto.digest import digest as _digest
        self.timestamp += 1
        steps = {self.current_zone: ("xz-debit", self.node_id, amount),
                 peer_zone: ("xz-credit", peer, amount)}
        request = CrossZoneRequest(steps=steps, steps_digest=_digest(steps),
                                   prepare_zone=self.current_zone,
                                   timestamp=self.timestamp,
                                   sender=self.node_id)
        self._launch(request, target_zone=self.current_zone)

    # ------------------------------------------------------------------
    # Certified reads (repro.reads): consensus-free, watermark-verified
    # ------------------------------------------------------------------
    def submit_read(self, operation: tuple) -> None:
        """Issue a certified fast-path read in the current zone.

        The request fans out to every zone member; completion requires
        ``f+1`` matching results, each individually backed by a verified
        watermark certificate within the staleness bound. Any timeout,
        verification failure, bound violation, or explicit rejection
        (e.g. the record is mid-migration) falls back to the
        transactional path — the fallback is transparent to the caller.
        """
        if not self.reads.enabled:
            self.submit_local(operation)
            return
        self.timestamp += 1
        zone_id = self.current_zone
        request = ReadRequest(operation=operation, timestamp=self.timestamp,
                              sender=self.node_id,
                              session=((zone_id,
                                        self.session.get(zone_id, 0)),))
        if self.obs.causal:
            self.obs.emit(self.sim.now, "txn.submit", node=self.node_id,
                          trace=trace_id(request), zone=zone_id,
                          target=zone_id, txn=self._txn_kind(request))
        self._read_outstanding = request
        self._read_started = self.sim.now
        self._read_votes.clear()
        for member in self.directory.zone(zone_id).members:
            self._send(request, member)
        if self._read_timer is not None:
            self._read_timer.cancel()
        self._read_timer = self.set_timer(self.reads.read_timeout_ms,
                                          self._on_read_timeout)

    def _on_read_timeout(self) -> None:
        if self._read_outstanding is not None:
            self._read_abandon("timeout")

    def _read_abandon(self, reason: str) -> None:
        """Fall back to the transactional path for the in-flight read."""
        request = self._read_outstanding
        self._read_outstanding = None
        if self._read_timer is not None:
            self._read_timer.cancel()
            self._read_timer = None
        self.obs.emit(self.sim.now, "read.fallback", node=self.node_id,
                      zone=self.current_zone, reason=reason)
        started = self._read_started
        self._fallback_read = True
        self.timestamp += 1
        fallback = ClientRequest(operation=request.operation,
                                 timestamp=self.timestamp,
                                 sender=self.node_id)
        self._launch(fallback, target_zone=self.current_zone)
        # The fallback's latency is charged from the original read
        # submission: the failed fast path is part of the cost.
        self._started_at = started

    def _cert_problem(self, cert, zone) -> str | None:
        """Why a reply's certificate is provably invalid (None if sound)."""
        if cert is None:
            return "missing-cert"
        if cert.zone != zone.zone_id:
            return "wrong-zone"
        if cert.body() != cert.certificate.payload_digest:
            # The cert's claimed (zone, seq, digest, ts) tuple is not the
            # one its quorum signed: a fabricated watermark claim.
            return "claim-mismatch"
        if not self._verifier.is_valid(cert.certificate,
                                       weak_quorum(zone.f),
                                       frozenset(zone.members)):
            return "bad-quorum"
        return None

    def _on_read_reply(self, reply: ReadReply) -> None:
        request = self._read_outstanding
        if request is None or reply.timestamp != request.timestamp:
            return
        zone = self.directory.zone(self.current_zone)
        if reply.sender not in zone.members:
            return
        if reply.status != "ok":
            # An explicit rejection code: the record is mid-migration,
            # the zone has no usable watermark yet, or the operation is
            # not servable — take the transactional path immediately.
            self._read_abandon(reply.status)
            return
        cert = reply.cert
        problem = self._cert_problem(cert, zone)
        if problem is not None:
            self.obs.emit(self.sim.now, "read.invalid", node=self.node_id,
                          sender=reply.sender, zone=zone.zone_id,
                          reason=problem)
            return
        age_ms = self.sim.now - cert.watermark_ts
        if not self.reads.fresh_ok(age_ms):
            # Genuine but stale certificate: not counted, not flagged —
            # honest replicas (or the fallback timer) keep us live.
            self.obs.emit(self.sim.now, "read.stale", node=self.node_id,
                          sender=reply.sender, zone=zone.zone_id,
                          age_ms=round(age_ms, 6))
            return
        if cert.sequence < self.session.get(zone.zone_id, 0):
            return   # behind our session vector; wait for fresher replies
        key = digest((reply.result,))
        votes = self._read_votes.setdefault(key, {})
        votes[reply.sender] = (age_ms, cert.sequence)
        if len(votes) < weak_quorum(zone.f):
            return
        self._read_complete(request, reply.result, votes, zone.zone_id)

    def _read_complete(self, request: ReadRequest, result: Any,
                       votes: dict[str, tuple[float, int]],
                       zone_id: str) -> None:
        self._read_outstanding = None
        if self._read_timer is not None:
            self._read_timer.cancel()
            self._read_timer = None
        sequence = max(seq for _, seq in votes.values())
        age_ms = max(age for age, _ in votes.values())
        # Session vector: verified watermarks only, monotonically rising.
        self.session[zone_id] = max(self.session.get(zone_id, 0), sequence)
        record = CompletedRequest(timestamp=request.timestamp,
                                  operation=request.operation,
                                  result=result,
                                  started_at=self._read_started,
                                  completed_at=self.sim.now,
                                  labels={"read": "fast"})
        self.completed.append(record)
        obs = self.obs
        obs.emit(self.sim.now, "read.complete", node=self.node_id,
                 zone=zone_id, sequence=sequence,
                 age_ms=round(age_ms, 6),
                 bound_ms=self.reads.staleness_bound_ms)
        if obs.causal:
            obs.emit(self.sim.now, "txn.reply", node=self.node_id,
                     trace=trace_id(request),
                     latency_ms=round(self.sim.now - self._read_started, 6),
                     txn=self._txn_kind(request))
        if self.on_complete is not None:
            self.on_complete(record)

    @staticmethod
    def _txn_kind(request: Any) -> str:
        if isinstance(request, MigrationRequest):
            return "migration"
        if isinstance(request, ClientRequest):
            return "local"
        if isinstance(request, ReadRequest):
            return "read"
        return "cross-zone"

    def _launch(self, request: Any, target_zone: str) -> None:
        obs = self.obs
        if obs.causal:
            tid = trace_id(request)
            if isinstance(request, (ClientRequest, MigrationRequest)):
                # Stamp the span context onto the wire message. The ctx
                # field is digest-excluded, so the signature below — and
                # every simulated byte downstream — is unchanged.
                request = replace(request, ctx=SpanContext(trace_id=tid))
            obs.emit(self.sim.now, "txn.submit", node=self.node_id,
                     trace=tid, zone=self.current_zone, target=target_zone,
                     txn=self._txn_kind(request))
        self._outstanding = request
        self._outstanding_zone = target_zone
        self._started_at = self.sim.now
        self._replies.clear()
        self._send(request, self._primary_hint(target_zone))
        self._arm_retry()

    def _arm_retry(self) -> None:
        if self._retry_timer is not None:
            self._retry_timer.cancel()
        self._retry_timer = self.set_timer(self.retransmit_ms, self._on_retry)

    def _on_retry(self) -> None:
        request = self._outstanding
        if request is None:
            return
        # Multicast to all nodes of the target zone; non-primaries relay to
        # their primary and start suspecting it (§V-A).
        for node in self.directory.zone(self._outstanding_zone).members:
            self._send(request, node)
        self._arm_retry()

    # ------------------------------------------------------------------
    # Replies
    # ------------------------------------------------------------------
    def on_message(self, sender: str, message: Any) -> None:
        if not isinstance(message, Signed):
            return
        payload = message.payload
        if isinstance(payload, ReadReply):
            if verify_signed(self.keys, message):
                self._on_read_reply(payload)
            return
        if not isinstance(payload, ClientReply):
            return
        if not verify_signed(self.keys, message):
            return
        self._on_reply(payload)

    def _on_reply(self, reply: ClientReply) -> None:
        try:
            sender_zone = self.directory.zone_of(reply.sender)
        except KeyError:
            return
        self.view_hints[sender_zone] = max(
            self.view_hints.get(sender_zone, 0), reply.view)
        request = self._outstanding
        if request is None or reply.timestamp != request.timestamp:
            return
        result = reply.result
        if isinstance(result, tuple) and result and result[0] == "sub1-committed":
            # First sub-transaction committed; final reply comes from the
            # destination zone after the data migration protocol.
            self._arm_retry()
            return
        key = digest((sender_zone, result))
        voters = self._replies.setdefault(key, set())
        voters.add(reply.sender)
        if len(voters) < weak_quorum(self.directory.zone(sender_zone).f):
            return
        self._complete(request, result)

    def _complete(self, request: Any, result: Any) -> None:
        self._outstanding = None
        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None
        is_global = isinstance(request, MigrationRequest)
        if is_global and isinstance(result, tuple) and result \
                and result[0] == "migrated":
            self.current_zone = request.dest_zone
            # Physical mobility: the client is now near its new zone.
            self.network.move(self.node_id,
                              self.directory.zone(request.dest_zone).region)
        record = CompletedRequest(timestamp=request.timestamp,
                                  operation=request.operation,
                                  result=result,
                                  started_at=self._started_at,
                                  completed_at=self.sim.now,
                                  is_global=is_global)
        if self._fallback_read:
            record.labels["read"] = "fallback"
            self._fallback_read = False
        self.completed.append(record)
        obs = self.obs
        if obs.causal:
            obs.emit(self.sim.now, "txn.reply", node=self.node_id,
                     trace=trace_id(request),
                     latency_ms=round(self.sim.now - self._started_at, 6),
                     txn=self._txn_kind(request))
        if self.on_complete is not None:
            self.on_complete(record)
