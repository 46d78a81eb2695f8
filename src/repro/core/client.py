"""Mobile Ziziphus client.

A client issues *local* transactions to its current zone and, when it
moves, a *migration request* (global transaction) to the initiator zone's
primary — the destination zone by default, or the stable-leader zone when
that optimisation is on. Completion requires ``f+1`` matching replies from
one zone: the destination zone after the data migration protocol appends
R(c) (successful migration), or the initiator zone when the migration was
rejected by policy.

Every request — local, migration, cross-zone, certified read, a read's
transactional fallback — is one launch of the loop in
:class:`~repro.pbft.client.ClosedLoopClient`; this module only says whom
a launch addresses and how its replies are judged.

Following the paper's evaluation methodology, physical mobility is
simulated: the same client identity simply starts addressing its new zone
once the migration completes.
"""

from __future__ import annotations

import zlib
from dataclasses import replace
from types import MappingProxyType
from typing import Any, Callable, Mapping

from repro.app.base import StateMachine
from repro.core.zone import ZoneDirectory
from repro.crypto.certificates import CertificateVerifier, QuorumCertificate
from repro.crypto.digest import digest
from repro.crypto.keys import KeyRegistry
from repro.messages.base import Signed, verify_signed
from repro.messages.client import ClientReply, ClientRequest, MigrationRequest
from repro.messages.reads import ReadReply, ReadRequest, ReadWatermarkCert
from repro.messages.trace import SpanContext, trace_id
from repro.pbft.client import ClosedLoopClient, InFlight
from repro.reads import ReadConfig
from repro.sim.events import Simulator
from repro.sim.network import Network
from repro.storage.merkle import verify_proof

__all__ = ["MobileClient"]

#: The labels of a read's completion record, shared by every such record
#: and read-only, so that nothing can write through one record into all.
#: A dict per record took `read-heavy`'s peak RSS from 34.3 to 36.3 MB.
_FAST_READ = MappingProxyType({"read": "fast"})
_FALLBACK_READ = MappingProxyType({"read": "fallback"})


class MobileClient(ClosedLoopClient):
    """Closed-loop mobile client of a Ziziphus deployment."""

    def __init__(self, sim: Simulator, network: Network, keys: KeyRegistry,
                 client_id: str, directory: ZoneDirectory, home_zone: str,
                 initiator_resolver: Callable[[str, str], str] | None = None,
                 retransmit_ms: float = 4_000.0,
                 read_config: ReadConfig | None = None,
                 read_key: Callable[[Any, str], str | None]
                 = StateMachine.read_key) -> None:
        super().__init__(sim, network, keys, client_id, retransmit_ms)
        self.directory = directory
        self.current_zone = home_zone
        #: Maps (source_zone, dest_zone) to the initiator zone — the
        #: stable-leader zone for intra-cluster migrations, the destination
        #: zone otherwise. Defaults to the destination zone.
        self.initiator_resolver = initiator_resolver
        #: The view a request to a zone first assumes: the highest that
        #: ``f+1`` of its members have reported (one of them is correct),
        #: from the highest view each member put in a reply to us.
        self.view_hints: dict[str, int] = {}
        self._reported_views: dict[str, dict[str, int]] = {}
        # Certified read path (repro.reads): the session vector holds
        # verified watermarks only.
        self.reads = read_config or ReadConfig()
        self.session: dict[str, int] = {}
        #: The application's key layout (``StateMachine.read_key``): the
        #: key whose proof answers a read.
        self.read_key = read_key
        #: Per zone, the member a read there is sent to first
        #: (:meth:`_read_asked`).
        self._read_members: dict[str, str] = {}
        self._verifier = CertificateVerifier(keys)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_local(self, operation: tuple) -> None:
        """Issue a local transaction on this client's data in its zone."""
        self._launch_at(self._request(ClientRequest, operation=operation),
                        self.current_zone)

    def submit_migration(self, dest_zone: str) -> None:
        """Issue a migration request from the current zone to ``dest_zone``."""
        self._submit_global(
            ("migrate", self.node_id, self.current_zone, dest_zone), dest_zone)

    def _submit_global(self, operation: tuple, dest_zone: str) -> None:
        """Order ``operation`` globally. The request goes to the initiator
        zone's primary: the stable-leader zone when configured, otherwise
        the destination zone (§IV.B.1)."""
        source_zone = self.current_zone
        request = self._request(MigrationRequest, operation=operation,
                                source_zone=source_zone, dest_zone=dest_zone)
        if self.initiator_resolver is not None:
            dest_zone = self.initiator_resolver(source_zone, dest_zone)
        self._launch_at(request, dest_zone)

    def submit_cross_zone_transfer(self, peer: str, peer_zone: str,
                                   amount: int) -> None:
        """Issue a cross-zone transaction (§IV.B.3): move ``amount`` from
        this client's account to ``peer`` hosted by ``peer_zone``."""
        if peer_zone == self.current_zone:
            self.submit_local(("transfer", peer, amount))
        else:
            self._submit_steps(
                {self.current_zone: ("xz-debit", self.node_id, amount),
                 peer_zone: ("xz-credit", peer, amount)})

    def _submit_steps(self, steps: dict[str, tuple]) -> None:
        """Run one step per involved zone as a cross-zone transaction.
        The client's own zone initiates (it is the prepare zone); only
        the involved zones participate."""
        from repro.core.cross_zone import CrossZoneRequest
        request = self._request(CrossZoneRequest, steps=steps,
                                steps_digest=digest(steps),
                                prepare_zone=self.current_zone)
        self._launch_at(request, self.current_zone)

    def submit_read(self, operation: tuple) -> None:
        """Issue a certified fast-path read in the current zone.

        The request goes to one zone member (:meth:`_read_asked`) and,
        once, to the others if that member's answer is unusable; the
        first answer whose watermark certificate verifies, within the
        staleness bound, and whose proof binds its value to the
        certified root completes it. ``f+1`` explicit rejections (e.g.
        the record is mid-migration), no usable answer from anyone or a
        timeout fall back to the transactional path — the fallback is
        transparent to the caller.
        """
        if not self.reads.enabled:
            self.submit_local(operation)
            return
        zone_id = self.current_zone
        session = ((zone_id, self.session.get(zone_id, 0)),)
        self._launch_at(self._request(ReadRequest, operation=operation,
                                      session=session), zone_id)

    @staticmethod
    def _txn_kind(request: Any) -> str:
        if isinstance(request, MigrationRequest):
            return "migration"
        if isinstance(request, ClientRequest):
            return "local"
        if isinstance(request, ReadRequest):
            return "read"
        return "cross-zone"

    def _launch_at(self, request: Any, zone_id: str,
                   started_at: float | None = None,
                   labels: Mapping[str, str] | None = None) -> None:
        """Launch ``request`` at ``zone_id``: a read at the member of
        :meth:`_read_asked`, with the read timeout; anything else at the
        primary we believe in, with retransmission to every member."""
        obs = self.obs
        if obs.causal:
            tid = trace_id(request)
            if isinstance(request, (ClientRequest, MigrationRequest)):
                # Stamp the span context onto the wire message. The ctx
                # field is digest-excluded, so the signature below — and
                # every simulated byte downstream — is unchanged.
                request = replace(request, ctx=SpanContext(trace_id=tid))
            obs.emit(self.sim.now, "txn.submit", node=self.node_id,
                     trace=tid, zone=self.current_zone, target=zone_id,
                     txn=self._txn_kind(request))
        zone = self.directory.zone(zone_id)
        if isinstance(request, ReadRequest):
            self._launch(request, (self._read_asked(zone),), zone.members,
                         self.reads.read_timeout_ms, self._read_abandon,
                         answer=ReadReply, labels=_FAST_READ)
        else:
            primary = zone.primary(self.view_hints.get(zone_id, 0))
            self._launch(request, (primary,), zone.members,
                         self.retransmit_ms, self._on_retry,
                         started_at=started_at, labels=labels)

    # ------------------------------------------------------------------
    # Replies
    # ------------------------------------------------------------------
    def on_message(self, sender: str, message: Any) -> None:
        if isinstance(message, Signed) \
                and isinstance(message.payload, (ClientReply, ReadReply)) \
                and verify_signed(self.keys, message):
            if isinstance(message.payload, ReadReply):
                self._on_read_reply(message.payload)
            else:
                self._on_reply(message.payload)

    def _on_reply(self, reply: ClientReply) -> None:
        try:
            zone = self.directory.zone(self.directory.zone_of(reply.sender))
        except KeyError:
            return
        self._hear_view(zone, reply.sender, reply.view)
        flight = self._awaited(reply)
        if flight is None:
            return
        result = reply.result
        status = result[0] if isinstance(result, tuple) and result else None
        if status == "sub1-committed":
            # First sub-transaction committed; the final reply comes from
            # the destination zone after the data migration protocol. Each
            # member of the addressed zone may put the retransmission off
            # once: a replayed reply may not, or one faulty replica could
            # keep the request from ever reaching the backups.
            if reply.sender in flight.targets and \
                    self._vote(status, reply.sender):
                self._arm(self.retransmit_ms, self._on_retry)
            return
        if status == "migrated" and \
                zone.zone_id != getattr(flight.request, "dest_zone", None):
            # Only the destination zone knows that it appended R(c).
            return
        votes = self._vote(digest((zone.zone_id, result)), reply.sender)
        if len(votes) >= zone.weak_quorum:
            self._complete(result)

    def _hear_view(self, zone, member: str, view: Any) -> None:
        """Member ``member`` of ``zone`` replied in ``view``: adopt the
        highest view ``f+1`` members have reached, so that one faulty
        member cannot misdirect every first send to the zone."""
        reported = self._reported_views.setdefault(zone.zone_id, {})
        if type(view) is not int or view <= reported.get(member, 0):
            return
        reported[member] = view
        quorum = zone.weak_quorum
        if len(reported) >= quorum:
            self.view_hints[zone.zone_id] = sorted(reported.values(),
                                                   reverse=True)[quorum - 1]

    def _read_abandon(self, reason: str = "timeout") -> None:
        """Fall back to the transactional path for the in-flight read,
        which stays charged from the original submission."""
        flight = self._outstanding
        if reason == "timeout":
            # The asked member failed the read: the next one is asked
            # next time.
            zone = self.directory.zone(self.current_zone)
            members = zone.members
            self._read_members[zone.zone_id] = members[
                (members.index(self._read_asked(zone)) + 1) % len(members)]
        self.obs.emit(self.sim.now, "read.fallback", node=self.node_id,
                      zone=self.current_zone, reason=reason)
        self._launch_at(self._request(ClientRequest,
                                      operation=flight.request.operation),
                        self.current_zone, started_at=flight.started_at,
                        labels=_FALLBACK_READ)

    def _read_asked(self, zone) -> str:
        """Whom a read in ``zone`` is sent to first: the member whose
        reply completed this client's last read there, or the next one
        after a read it let time out. A client's first read there asks
        the member its id picks, so that a zone's clients spread evenly
        over its members. One correct member's answer completes a read."""
        member = self._read_members.get(zone.zone_id)
        if member is None:
            members = zone.members
            member = members[zlib.crc32(self.node_id.encode()) % len(members)]
        return member

    def _cert_problem(self, cert, zone) -> str | None:
        """Why a reply's certificate is provably invalid (None if sound)."""
        if cert is None:
            return "missing-cert"
        if type(cert) is not ReadWatermarkCert \
                or type(cert.certificate) is not QuorumCertificate:
            return "malformed-cert"
        if cert.zone != zone.zone_id:
            return "wrong-zone"
        if cert.body() != cert.certificate.payload_digest:
            # The cert's claimed (zone, seq, digest, ts) tuple is not the
            # one its quorum signed: a fabricated watermark claim.
            return "claim-mismatch"
        if not self._verifier.is_valid(cert.certificate,
                                       zone.weak_quorum, zone.member_set):
            return "bad-quorum"
        return None

    def _on_read_reply(self, reply: ReadReply) -> None:
        flight = self._awaited(reply)
        if flight is None:
            return
        zone = self.directory.zone(self.current_zone)
        sender = reply.sender
        if sender not in zone.members:
            return
        for voters in flight.votes.values():
            if sender in voters:
                return   # one member, one answer: a replay decides nothing
        if reply.status != "ok":
            # ``f+1`` explicit rejections, one of them honest: the record
            # is mid-migration, the zone has no usable watermark yet, its
            # certified version does not hold the record, or the operation
            # is not servable — take the transactional path immediately.
            if len(self._vote("refused", sender, reply.status)) \
                    >= zone.weak_quorum:
                self._read_abandon(reply.status)
                return
        else:
            cert = self._proven(reply, zone, flight.request.operation)
            if cert is not None:
                # Session vector: verified watermarks only, monotonically
                # rising.
                self.session[zone.zone_id] = max(
                    self.session.get(zone.zone_id, 0), cert.sequence)
                self.obs.emit(self.sim.now, "read.complete",
                              node=self.node_id, zone=zone.zone_id,
                              sequence=cert.sequence,
                              age_ms=round(self.sim.now - cert.watermark_ts,
                                           6),
                              bound_ms=self.reads.staleness_bound_ms)
                self._read_members[zone.zone_id] = sender
                self._complete(("ok", reply.result))
                return
            self._vote(None, sender)
        heard = set().union(*flight.votes.values())
        if heard.issuperset(flight.targets):
            # Every member has answered and none usably: nobody is left
            # to ask, so the read timeout could only be waited out.
            self._read_abandon("unusable")
            return
        if sender == self._read_asked(zone):
            # The asked member's answer is unusable: ask the others now
            # rather than wait out the read timeout. A member is heard
            # once, so this happens once.
            self._send(flight.request,
                       tuple(m for m in flight.targets if m not in heard))

    def _proven(self, reply: ReadReply, zone,
                operation: Any) -> ReadWatermarkCert | None:
        """The certificate of an ``ok`` reply that completes the read, or
        None for one that cannot be used, which still says its sender was
        heard: a certificate that is invalid or over the bound, a value
        its proof does not bind to the certified root, a watermark below
        the session vector."""
        cert = reply.cert
        problem = self._cert_problem(cert, zone)
        if problem is None and not verify_proof(
                cert.state_digest, self.read_key(operation, self.node_id),
                reply.result, reply.proof):
            problem = "bad-proof"
        if problem is not None:
            self.obs.emit(self.sim.now, "read.invalid", node=self.node_id,
                          sender=reply.sender, zone=zone.zone_id,
                          reason=problem)
            return None
        age_ms = self.sim.now - cert.watermark_ts
        if not self.reads.fresh_ok(age_ms):
            # Genuine but stale certificate: not counted, not flagged —
            # honest replicas (or the fallback) keep us live.
            self.obs.emit(self.sim.now, "read.stale", node=self.node_id,
                          sender=reply.sender, zone=zone.zone_id,
                          age_ms=round(age_ms, 6))
            return None
        if cert.sequence < self.session.get(zone.zone_id, 0):
            return None   # behind our session vector
        return cert

    def _settle(self, flight: InFlight, result: Any) -> bool:
        request = flight.request
        is_global = isinstance(request, MigrationRequest)
        if is_global and isinstance(result, tuple) and result \
                and result[0] == "migrated":
            self.current_zone = request.dest_zone
            # Physical mobility: the client is now near its new zone.
            self.network.move(self.node_id,
                              self.directory.zone(request.dest_zone).region)
        if self.obs.causal:
            self.obs.emit(self.sim.now, "txn.reply", node=self.node_id,
                          trace=trace_id(request),
                          latency_ms=round(self.sim.now - flight.started_at,
                                           6),
                          txn=self._txn_kind(request))
        return is_global
