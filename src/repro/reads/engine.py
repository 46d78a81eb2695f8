"""Replica-side engine for the certified read path.

Two duties, both attached to every :class:`~repro.core.node.ZiziphusNode`:

**Watermark certification.** After each executed PBFT batch (which includes
every checkpoint boundary — checkpoints are taken immediately after
execution) the replica signs a ``(zone, sequence, state_digest,
watermark_ts)`` tuple and multicasts the share to its zone peers. ``f+1``
matching shares aggregate into a transferable
:class:`~repro.messages.reads.ReadWatermarkCert`: at least one signer is
honest, so the certified tuple reflects genuinely committed state.
``watermark_ts`` is quantized to ``epoch_ms`` — replicas execute the same
sequence at slightly different simulated instants, and quantization makes
their share bodies byte-identical within an epoch. A batch whose executions
straddle an epoch edge simply fails to certify; the next batch (or the
client's transactional fallback) restores progress, never safety.

**Read serving.** A :class:`~repro.messages.reads.ReadRequest` is answered
from committed application state together with the newest held certificate.
The reply carries an explicit fallback code instead of data whenever the
record's ownership is in flux (``"migrating"`` — the lock bit is FALSE
during an in-flight migration, so the frozen pre-commit state here must not
be served), no certificate has formed yet (``"no-watermark"``), or the
replica's watermark does not dominate the client's session vector
(``"behind"``, causal session mode).

The engine is constructed on every node so its handlers are always
registered, but it stays completely silent — no shares, no events — unless
``ReadConfig.enabled`` is set, keeping write-only traces byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

from repro.crypto.certificates import QuorumCertificate
from repro.messages.reads import (ReadReply, ReadRequest, ReadWatermarkCert,
                                  WatermarkShare, watermark_body)
from repro.quorums import weak_quorum

__all__ = ["ReadConfig", "ReadEngine"]


@dataclass(frozen=True)
class ReadConfig:
    """Tuning knobs for the certified read path.

    ``staleness_bound_ms`` is the freshness contract every served read
    must satisfy: clients reject any certificate older than the bound and
    fall back to the transactional path. ``epoch_ms`` quantizes watermark
    timestamps (see module docstring) and therefore also bounds how much
    older than its commit instant a certificate can claim to be.
    """

    enabled: bool = False
    staleness_bound_ms: float = 300.0
    epoch_ms: float = 50.0
    read_timeout_ms: float = 120.0

    def fresh_ok(self, age_ms: float) -> bool:
        """Whether a certificate of ``age_ms`` satisfies the bound."""
        return age_ms <= self.staleness_bound_ms


class ReadEngine:
    """Watermark certification and certified read serving for one node."""

    def __init__(self, node: Any, config: ReadConfig | None = None) -> None:
        self.node = node
        self.config = config or ReadConfig()
        self.zone = node.zone_info
        self._quorum = weak_quorum(self.zone.f)
        #: Newest certified watermark this replica holds.
        self.cert: Optional[ReadWatermarkCert] = None
        #: sequence -> signer -> (body digest, signature share). A signer
        #: has one share per sequence, so a faulty one cannot add buckets.
        self._votes: dict[int, dict[str, tuple[bytes, Any]]] = {}
        self.reads_served = 0
        node.register_handler(WatermarkShare, self._on_share)
        node.register_handler(ReadRequest, self._on_read)

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    # ------------------------------------------------------------------
    # Watermark certification
    # ------------------------------------------------------------------
    def _epoch_ts(self) -> float:
        period = self.config.epoch_ms
        return math.floor(self.node.sim.now / period) * period

    def on_executed(self, sequence: int) -> None:
        """Replica hook: a batch up to ``sequence`` was executed here."""
        if not self.config.enabled:
            return
        node = self.node
        watermark_ts = self._epoch_ts()
        state_digest = node.app.state_digest()
        body = watermark_body(self.zone.zone_id, sequence, state_digest,
                              watermark_ts)
        share = WatermarkShare(
            zone=self.zone.zone_id, sequence=sequence,
            state_digest=state_digest, watermark_ts=watermark_ts,
            signature=node.keys.sign(node.node_id, body),
            sender=node.node_id)
        others = tuple(m for m in self.zone.members if m != node.node_id)
        node.multicast_signed(others, share)
        self._record(node.node_id, share, body)

    def _on_share(self, sender: str, share: WatermarkShare, envelope) -> None:
        if sender not in self.zone.members or share.sender != sender:
            return
        if share.zone != self.zone.zone_id:
            return
        if share.sequence > self.node.replica.high_water_mark:
            # No correct replica executes beyond the window: a share from
            # there must not allocate a bucket (a faulty member could
            # otherwise grow `_votes` without bound).
            return
        body = watermark_body(share.zone, share.sequence, share.state_digest,
                              share.watermark_ts)
        if share.signature.signer != sender:
            return
        if not self.node.keys.verify(share.signature, body):
            return
        self._record(sender, share, body)

    def _record(self, voter: str, share: WatermarkShare, body: bytes) -> None:
        current = self.cert
        if current is not None and share.sequence <= current.sequence:
            return
        votes = self._votes.setdefault(share.sequence, {})
        votes.setdefault(voter, (body, share.signature))
        matching = [signature for voted, signature in votes.values()
                    if voted == body]
        if len(matching) < self._quorum:
            return
        self.cert = ReadWatermarkCert(
            zone=share.zone, sequence=share.sequence,
            state_digest=share.state_digest,
            watermark_ts=share.watermark_ts,
            certificate=QuorumCertificate.aggregate(body, matching))
        # Superseded buckets can never certify a newer watermark; dropping
        # them keeps the vote table bounded by in-flight sequences.
        self._votes = {sequence: votes
                       for sequence, votes in self._votes.items()
                       if sequence > share.sequence}
        self.node.obs.emit(self.node.sim.now, "read.watermark",
                           node=self.node.node_id, zone=self.zone.zone_id,
                           sequence=share.sequence,
                           watermark_ts=share.watermark_ts)

    # ------------------------------------------------------------------
    # Read serving
    # ------------------------------------------------------------------
    def _on_read(self, sender: str, request: ReadRequest, envelope) -> None:
        if request.sender != sender:
            return
        reply = self._answer(request)
        node = self.node
        node.send_signed(sender, reply)  # lint: allow[taint-flow] read reply echoes the request's own timestamp back to its authenticated sender; the data it carries is committed local state bound by a quorum watermark certificate
        if reply.status == "ok":
            self.reads_served += 1
        node.obs.emit(node.sim.now, "read.serve", node=node.node_id,
                      zone=self.zone.zone_id, client=sender,
                      status=reply.status)

    def _answer(self, request: ReadRequest) -> ReadReply:
        base = dict(timestamp=request.timestamp, client_id=request.sender,
                    sender=self.node.node_id)
        if not self._ownership_ok(request.sender):
            # Migration of the requested record is in flight (or it has
            # migrated away): the frozen pre-commit state held here must
            # not be served. Explicit fallback code, never silent data.
            return ReadReply(status="migrating", result=None, cert=None,
                             **base)
        cert = self.cert
        if cert is None:
            return ReadReply(status="no-watermark", result=None, cert=None,
                             **base)
        session_floor = self._session_floor(request.session)
        if cert.sequence < session_floor:
            # Causal session mode: our certified watermark does not
            # dominate the client's vector for this zone yet.
            return ReadReply(status="behind", result=None, cert=None, **base)
        result = self._evaluate(request.operation, request.sender)
        if result is None:
            return ReadReply(status="unsupported", result=None, cert=None,
                             **base)
        return ReadReply(status="ok", result=result, cert=cert, **base)

    def _ownership_ok(self, client_id: str) -> bool:
        """TRUE iff this replica's copy of the record is authoritative."""
        return self.node.locks.is_current(client_id)

    def _session_floor(self, session: tuple) -> int:
        for zone_id, sequence in session:
            if zone_id == self.zone.zone_id:
                return sequence
        return 0

    def _evaluate(self, operation: tuple, client_id: str):
        """Evaluate a read-only operation against committed app state."""
        app = self.node.app
        if operation and operation[0] == "balance" \
                and hasattr(app, "balance_of"):
            if not app.has_account(client_id):
                return ("err", "no-account")
            return ("ok", app.balance_of(client_id))
        return None
