"""PBFT checkpointing.

Every ``period`` executions a replica snapshots its application state,
multicasts a CHECKPOINT vote, and a checkpoint becomes *stable* once 2f+1
replicas vouch for the same (sequence, state digest). Stable checkpoints
advance the water marks and garbage-collect consensus state; Ziziphus also
ships them across zones for lazy synchronization (paper §V-B).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.messages.base import Signed
from repro.messages.pbft import (CheckpointFetch, CheckpointMsg,
                                 CheckpointSnapshot)
from repro.pbft.host import HostNode
from repro.quorums import intra_zone_quorum
from repro.storage.checkpoint import Checkpoint, CheckpointStore

__all__ = ["CheckpointManager"]


class CheckpointManager:
    """Generates checkpoints and tracks their stability for one group."""

    def __init__(self, host: HostNode, group: tuple[str, ...], f: int,
                 app: Any, period: int,
                 on_stable: Callable[[int], None] | None = None,
                 on_snapshot: Callable[[Checkpoint], None] | None = None,
                 on_uncovered: Callable[[str, int], None] | None = None,
                 quorum: int | None = None) -> None:
        self.host = host
        self.group = group
        self.others = tuple(n for n in group if n != host.node_id)
        self.f = f
        self.app = app
        self.period = period
        self.on_stable = on_stable
        self.on_snapshot = on_snapshot
        #: ``(member, sequence)``: a fetch no snapshot here covers.
        self.on_uncovered = on_uncovered
        if quorum is None:
            quorum = intra_zone_quorum(f)
        self.store = CheckpointStore(quorum=quorum)
        self._announced_stable = 0

    def register(self) -> None:
        """Attach the CHECKPOINT handlers to the host."""
        self.host.register_handler(CheckpointMsg, self._on_checkpoint)
        self.host.register_handler(CheckpointFetch, self._on_fetch)
        self.host.register_handler(CheckpointSnapshot, self._on_snapshot)

    @property
    def stable_sequence(self) -> int:
        """Sequence of the latest stable checkpoint (0 if none)."""
        stable = self.store.stable
        return stable.sequence if stable is not None else 0

    @property
    def stable(self) -> Checkpoint | None:
        """The latest stable checkpoint object, if any."""
        return self.store.stable

    def maybe_checkpoint(self, executed_sequence: int) -> None:
        """Generate and vote a checkpoint if the period boundary was hit."""
        if executed_sequence % self.period != 0:
            return
        self.generate(executed_sequence)

    def generate(self, sequence: int) -> None:
        """Snapshot state at ``sequence`` and multicast a checkpoint vote.

        Ziziphus calls this out-of-period when a migration request arrives
        (the paper's "checkpoint on migration" policy).
        """
        state_digest = self.app.state_digest()
        self.store.record_local(Checkpoint(sequence=sequence,
                                           state_digest=state_digest,
                                           snapshot=self.app.snapshot()))
        vote = CheckpointMsg(sequence=sequence, state_digest=state_digest,
                             sender=self.host.node_id)
        self.host.multicast_signed(self.others, vote)
        self._record_vote(self.host.node_id, sequence, state_digest)

    def _on_checkpoint(self, sender: str, msg: CheckpointMsg,
                       envelope: Signed) -> None:
        self._record_vote(sender, msg.sequence, msg.state_digest)

    # ------------------------------------------------------------------
    # State transfer (lagging replicas)
    # ------------------------------------------------------------------
    def request_snapshot(self, sequence: int) -> None:
        """Ask the zone for the snapshot behind the stable checkpoint at
        ``sequence`` (fired when this replica falls behind it), or for
        what it misses from ``sequence`` on: a member no snapshot of which
        covers it answers through ``on_uncovered``."""
        fetch = CheckpointFetch(sequence=sequence, sender=self.host.node_id)
        self.host.multicast_signed(self.others, fetch)

    def _on_fetch(self, sender: str, msg: CheckpointFetch,
                  envelope: Signed) -> None:
        if sender not in self.group:
            return
        # Serve the newest snapshot we hold that covers the request; the
        # local store keeps exactly the snapshots at and above the latest
        # stable checkpoint.
        best: Checkpoint | None = None
        stable = self.store.stable
        if stable is not None and stable.snapshot is not None and \
                stable.sequence >= msg.sequence:
            best = stable
        local = self.store.local(msg.sequence)
        if best is None and local is not None and \
                local.snapshot is not None:
            best = local
        if best is None:
            if self.on_uncovered is not None:
                self.on_uncovered(sender, msg.sequence)
            return
        reply = CheckpointSnapshot(sequence=best.sequence,
                                   state_digest=best.state_digest,
                                   snapshot=best.snapshot,
                                   sender=self.host.node_id)
        self.host.send_signed(sender, reply)

    def _on_snapshot(self, sender: str, msg: CheckpointSnapshot,
                     envelope: Signed) -> None:
        if sender not in self.group:
            return
        # Only adopt snapshots matching a checkpoint that 2f+1 replicas
        # vouched for — a lone (possibly Byzantine) responder cannot make
        # up state. The fetcher re-derives the digest after restoring.
        stable = self.store.stable
        if stable is None or msg.sequence != stable.sequence or \
                msg.state_digest != stable.state_digest:
            return
        if self.on_snapshot is not None:
            self.on_snapshot(Checkpoint(sequence=msg.sequence,
                                        state_digest=msg.state_digest,
                                        snapshot=msg.snapshot))

    def _record_vote(self, voter: str, sequence: int,
                     state_digest: bytes) -> None:
        if voter not in self.group:
            return
        reached_quorum = self.store.vote(voter, sequence, state_digest)  # lint: allow[taint-flow] checkpoint vote aggregation; CheckpointStore requires a 2f+1 quorum before stability
        if reached_quorum and sequence > self._announced_stable:
            self._announced_stable = sequence
            if self.on_stable is not None:
                self.on_stable(sequence)
