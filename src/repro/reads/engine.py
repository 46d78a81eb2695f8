"""Replica-side engine for the certified read path.

Two duties, both attached to every :class:`~repro.core.node.ZiziphusNode`:

**Watermark certification, once per epoch.** ``watermark_ts`` is quantized
to ``epoch_ms`` and clients accept ``staleness_bound_ms`` of age, so a zone
needs one certificate per epoch, not one per batch. After an executed PBFT
batch a replica that holds no certificate of the *current* epoch signs a
``(zone, sequence, state_digest, watermark_ts)`` tuple and multicasts the
share to its zone peers; one that holds one does nothing. ``f+1`` matching
shares aggregate into a transferable
:class:`~repro.messages.reads.ReadWatermarkCert`: at least one signer is
honest, so the certified tuple reflects genuinely committed state.
Quantization makes the share bodies of replicas that execute a sequence at
slightly different simulated instants byte-identical within an epoch. The
rule reads only ``self.cert``, so it heals itself: a replica keeps offering
the batches it executes until the epoch is certified *at that replica*, and
a batch whose executions straddle an epoch edge costs at most one more
round of shares (the members on the late side certify it among themselves
and everyone who hears ``f+1`` of them holds the result; otherwise the next
batch is offered by all who still lack the epoch). An idle zone's
certificate ages out and the client's transactional fallback renews it.

**Read serving, from the certified version.** The store marks the version
each executed batch leaves (:meth:`~repro.storage.kvstore.KVStore.mark`,
no hashing). A replica *serves* a certificate once it has executed the
sequence it names and its own tree of that version has the certified root:
then, or at once when the certificate forms over a sequence already
executed here. A :class:`~repro.messages.reads.ReadRequest` is answered
with the served certificate, the value the read's key has in that version
and its inclusion proof against ``cert.state_digest`` — one such reply is
enough for the client. Serving a certificate lets go of every version
marked before it. The reply carries an explicit fallback code instead of
data whenever the record's ownership is in flux (``"migrating"`` — the
lock bit is FALSE during an in-flight migration, so the frozen pre-commit
state here must not be served), no certificate is served yet
(``"no-watermark"``), the served watermark does not dominate the client's
session vector (``"behind"``), the operation is not one the fast path
serves (``"unsupported"``), or the version does not hold the key, or holds
it from before the record last arrived here by migration (``"absent"``).

The engine is constructed on every node so its handlers are always
registered, but it stays completely silent — no shares, no events — unless
``ReadConfig.enabled`` is set, keeping write-only traces byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

from repro.crypto.certificates import QuorumCertificate
from repro.crypto.keys import Signature
from repro.messages.reads import (ReadReply, ReadRequest, ReadWatermarkCert,
                                  WatermarkShare, watermark_body)
from repro.quorums import weak_quorum
from repro.storage.merkle import StateTree

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
        self._peers = tuple(m for m in self.zone.members
                            if m != node.node_id)
        #: Newest certified watermark this replica holds.
        self.cert: Optional[ReadWatermarkCert] = None
        #: The certificate reads are answered with, the tree of the
        #: version it certifies (see the module docstring), and what that
        #: version has proven so far: key -> (value, proof) or None. A
        #: client reads its own record many times under one certificate
        #: (DESIGN.md §14.2 measures it).
        self.served: Optional[tuple[ReadWatermarkCert, StateTree,
                                    dict]] = None
        #: client -> the sequence this replica had executed when the
        #: client's record last arrived here by migration: a version at or
        #: below it holds the record as it was before, or not at all.
        self._arrived: dict[str, int] = {}
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
        """Replica hook: a batch up to ``sequence`` was executed here.
        Mark its version; serve a certificate held over it; offer it for
        certification unless this epoch is certified here."""
        if not self.config.enabled:
            return
        node = self.node
        store = node.app.store
        store.mark(sequence)
        cert = self.cert
        if cert is not None and cert.sequence == sequence:
            self._serve(cert)
        watermark_ts = self._epoch_ts()
        if cert is not None and cert.watermark_ts == watermark_ts:
            return
        state_digest = store.version(sequence).root
        body = watermark_body(self.zone.zone_id, sequence, state_digest,
                              watermark_ts)
        share = WatermarkShare(
            zone=self.zone.zone_id, sequence=sequence,
            state_digest=state_digest, watermark_ts=watermark_ts,
            signature=node.keys.sign(node.node_id, body),
            sender=node.node_id)
        node.multicast_signed(self._peers, share)
        self._record(node.node_id, share, body)

    def _on_share(self, sender: str, share: WatermarkShare, envelope) -> None:
        if sender not in self.zone.members or share.sender != sender:
            return
        if share.zone != self.zone.zone_id:
            return
        if type(share.sequence) is not int \
                or type(share.signature) is not Signature:
            self.node.refuse(sender, share)
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
        self._serve(self.cert)

    # ------------------------------------------------------------------
    # Read serving
    # ------------------------------------------------------------------
    def on_arrived(self, client_id: str) -> None:
        """Replica hook: ``client_id``'s record was appended here by a
        migration — outside any batch, so after the version of the last
        one executed."""
        if self.config.enabled:
            self._arrived[client_id] = self.node.replica.last_executed

    def _serve(self, cert: ReadWatermarkCert) -> None:
        """Answer reads from ``cert`` if this replica has executed the
        sequence it names (otherwise ``on_executed`` comes back to it)
        and its tree of that version has the certified root."""
        store = self.node.app.store
        tree = store.version(cert.sequence)
        if tree is None:
            return
        # No later certificate can name an earlier version.
        store.forget(cert.sequence)
        if tree.root == cert.state_digest:
            self.served = (cert, tree, {})

    def _on_read(self, sender: str, request: ReadRequest, envelope) -> None:
        if request.sender != sender:
            return
        reply = self._answer(request)
        if reply is None:
            self.node.refuse(sender, request)
            return
        node = self.node
        node.send_signed(sender, reply)
        if reply.status == "ok":
            self.reads_served += 1
        node.obs.emit(node.sim.now, "read.serve", node=node.node_id,
                      zone=self.zone.zone_id, client=sender,
                      status=reply.status)

    def _answer(self, request: ReadRequest) -> ReadReply | None:
        """The reply ``request`` gets — none for an ill-shaped one."""
        session_floor = self._session_floor(request.session)
        if session_floor is None:
            return None
        base = dict(timestamp=request.timestamp, client_id=request.sender,
                    sender=self.node.node_id)
        if not self._ownership_ok(request.sender):
            # Migration of the requested record is in flight (or it has
            # migrated away): the frozen pre-commit state held here must
            # not be served. Explicit fallback code, never silent data.
            return ReadReply(status="migrating", result=None, cert=None,
                             **base)
        if self.served is None:
            return ReadReply(status="no-watermark", result=None, cert=None,
                             **base)
        cert, tree, proven = self.served
        if cert.sequence < session_floor:
            # Causal session mode: our certified watermark does not
            # dominate the client's vector for this zone yet.
            return ReadReply(status="behind", result=None, cert=None, **base)
        key = self.node.app.read_key(request.operation, request.sender)
        if key is None:
            return ReadReply(status="unsupported", result=None, cert=None,
                             **base)
        if cert.sequence <= self._arrived.get(request.sender, -1):
            # The record arrived after the served version: a client that
            # comes back to a zone must not read what it left there.
            return ReadReply(status="absent", result=None, cert=None,
                             **base)
        if key not in proven:
            proven[key] = tree.prove(key)
        found = proven[key]
        if found is None:
            # Nothing to prove: the version does not hold the record.
            return ReadReply(status="absent", result=None, cert=None,
                             **base)
        value, proof = found
        return ReadReply(status="ok", result=value, cert=cert, proof=proof,
                         **base)

    def _ownership_ok(self, client_id: str) -> bool:
        """TRUE iff this replica's copy of the record is authoritative."""
        return self.node.locks.is_current(client_id)

    def _session_floor(self, session: tuple) -> int | None:
        """The client's minimum sequence for this zone (0 if it names
        none) — or ``None`` for a vector that is not a tuple of
        ``(zone id, int)`` pairs: it arrives from the network."""
        if type(session) is not tuple:
            return None
        floor = None
        for entry in session:
            if type(entry) is not tuple or len(entry) != 2 \
                    or type(entry[1]) is not int:
                return None
            if floor is None and entry[0] == self.zone.zone_id:
                floor = entry[1]
        return floor or 0
