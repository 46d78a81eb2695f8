"""PBFT checkpointing.

Every ``checkpoint_period`` executions a replica snapshots its
application state, multicasts a CHECKPOINT vote, and a checkpoint becomes
*stable* once a certificate quorum of replicas (``2f+1`` under PBFT
sizing) vouches for the same (sequence, state digest). Stable checkpoints
advance the water marks and garbage-collect consensus state; Ziziphus
also ships them across zones for lazy synchronization (paper §V-B).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.messages.base import Signed
from repro.messages.pbft import (CheckpointFetch, CheckpointMsg,
                                 CheckpointSnapshot)
from repro.storage.checkpoint import Checkpoint, CheckpointStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pbft.replica import PBFTReplica

__all__ = ["CheckpointManager"]


class CheckpointManager:
    """Generates checkpoints and tracks their stability for the group of
    one replica, which it tells of a stable checkpoint, of a fetched
    snapshot that matches it, and of a fetch no snapshot here covers."""

    def __init__(self, replica: "PBFTReplica") -> None:
        self.replica = replica
        self.host = replica.host
        self.store = CheckpointStore(quorum=replica.quorum)
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
        if executed_sequence % self.replica.config.checkpoint_period != 0:
            return
        self.generate(executed_sequence)

    def generate(self, sequence: int) -> None:
        """Snapshot state at ``sequence`` and multicast a checkpoint vote.

        Ziziphus calls this out-of-period when a migration request arrives
        (the paper's "checkpoint on migration" policy).
        """
        app = self.replica.app
        state_digest = app.state_digest()
        self.store.record_local(Checkpoint(sequence=sequence,
                                           state_digest=state_digest,
                                           snapshot=app.snapshot()))
        vote = CheckpointMsg(sequence=sequence, state_digest=state_digest,
                             sender=self.host.node_id)
        self.host.multicast_signed(self.replica.others, vote)
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
        covers it answers with its replica's gap replies."""
        fetch = CheckpointFetch(sequence=sequence, sender=self.host.node_id)
        self.host.multicast_signed(self.replica.others, fetch)

    def _on_fetch(self, sender: str, msg: CheckpointFetch,
                  envelope: Signed) -> None:
        if sender not in self.replica.group:
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
            self.replica._serve_gap(sender, msg.sequence)
            return
        reply = CheckpointSnapshot(sequence=best.sequence,
                                   state_digest=best.state_digest,
                                   snapshot=best.snapshot,
                                   sender=self.host.node_id)
        self.host.send_signed(sender, reply)

    def _on_snapshot(self, sender: str, msg: CheckpointSnapshot,
                     envelope: Signed) -> None:
        if sender not in self.replica.group:
            return
        # Only adopt snapshots matching a checkpoint that a quorum vouched
        # for — a lone (possibly Byzantine) responder cannot make
        # up state. The fetcher re-derives the digest after restoring.
        stable = self.store.stable
        if stable is None or msg.sequence != stable.sequence or \
                msg.state_digest != stable.state_digest:
            return
        self.replica._adopt_checkpoint(Checkpoint(
            sequence=msg.sequence, state_digest=msg.state_digest,
            snapshot=msg.snapshot))

    def _record_vote(self, voter: str, sequence: int,
                     state_digest: bytes) -> None:
        if voter not in self.replica.group:
            return
        reached_quorum = self.store.vote(voter, sequence, state_digest)  # lint: allow[taint-flow] checkpoint vote aggregation; CheckpointStore requires a 2f+1 quorum before stability
        if reached_quorum and sequence > self._announced_stable:
            self._announced_stable = sequence
            self.replica._on_stable_checkpoint(sequence)
