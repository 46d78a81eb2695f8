"""Per-node storage substrate: KV store, logs, checkpoints."""

from repro.storage.checkpoint import Checkpoint, CheckpointStore
from repro.storage.kvstore import KVStore
from repro.storage.log import CommitLog, CommitRecord

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "CommitLog",
    "CommitRecord",
    "KVStore",
]
