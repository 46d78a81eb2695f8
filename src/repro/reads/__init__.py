"""Certified read path: stale-bounded edge reads without consensus.

Zone replicas continuously certify their committed kvstore state with
watermark certificates (``f+1`` matching HMAC signatures over
``(zone, sequence, state_digest, watermark_ts)``, the digest being the
state tree's root); a client asks one replica — the others only when its
answer is unusable — and completes on the first answer whose certificate
quorum, staleness bound and Merkle proof it verifies locally, falling
back to the transactional path whenever none can be had or record
ownership is in flux. See DESIGN.md §14.
"""

from repro.reads.engine import ReadConfig, ReadEngine

__all__ = ["ReadConfig", "ReadEngine"]
