"""Per-node storage substrate: KV store with its state root, checkpoints."""

from repro.storage.checkpoint import Checkpoint, CheckpointStore
from repro.storage.kvstore import KVStore, state_root

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "KVStore",
    "state_root",
]
