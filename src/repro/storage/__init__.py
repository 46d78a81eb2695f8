"""Per-node storage substrate: KV store with its state tree, checkpoints."""

from repro.storage.checkpoint import Checkpoint, CheckpointStore
from repro.storage.kvstore import KVStore
from repro.storage.merkle import StateTree, state_root, verify_proof

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "KVStore",
    "StateTree",
    "state_root",
    "verify_proof",
]
