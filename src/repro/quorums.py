"""Canonical quorum arithmetic (paper §IV-§VI).

Every quorum threshold in the reproduction is computed here, and *only*
here. The ``quorum-arith`` lint rule (``repro lint``) flags inline
``2f+1`` / ``f+1`` / majority expressions anywhere else in the source
tree, so a protocol layer cannot silently drift from the paper's
quorum-formation discipline:

- Zones are PBFT groups of ``3f+1`` nodes tolerating ``f`` Byzantine
  members; intra-zone certificates need ``2f+1`` distinct signers
  (§IV.B.1).
- ``f+1`` matching replies convince a client (one must be correct), and
  ``f+1`` view-change votes form the weak certificate that pulls a
  correct replica into a higher view (§IV.B.2).
- The top-level data-sync protocol commits after a *majority of zones*
  accepted a ballot (§V), and cross-cluster coordination uses ``f+1``
  proxy nodes per zone so at least one proxy is correct (§VI).

This module is deliberately dependency-free (pure integer arithmetic) so
every layer — ``crypto``, ``pbft``, ``core``, ``obs``, ``baselines`` —
can import it without cycles.
"""

from __future__ import annotations

__all__ = [
    "max_faulty", "group_size", "intra_zone_quorum", "weak_quorum",
    "proxy_count", "zone_majority", "two_thirds_quorum", "two_level_big_f",
    "sync_group_size", "sync_commit_quorum",
]


def max_faulty(group_size: int) -> int:
    """Largest ``f`` a PBFT group of ``group_size`` nodes tolerates."""
    return (group_size - 1) // 3


def group_size(f: int) -> int:
    """Minimum PBFT group size tolerating ``f`` Byzantine members."""
    return 3 * f + 1


def intra_zone_quorum(f: int) -> int:
    """Certificate / commit quorum of a zone tolerating ``f``: ``2f+1``."""
    return 2 * f + 1


def weak_quorum(f: int) -> int:
    """Smallest set guaranteed to contain a correct node: ``f+1``.

    Used for client reply matching and the view-change weak certificate.
    """
    return f + 1


def proxy_count(f: int) -> int:
    """Cross-cluster proxy nodes per zone (§VI): ``f+1``, one correct."""
    return f + 1


def zone_majority(num_zones: int) -> int:
    """Majority-of-zones quorum Q_M for the top-level protocol (§V)."""
    return num_zones // 2 + 1


def two_thirds_quorum(group_size: int) -> int:
    """Flat-PBFT supermajority over an arbitrary group size.

    Equals :func:`intra_zone_quorum` when ``group_size == 3f+1``; the
    general form covers flat baselines whose group is not of that shape.
    """
    return (2 * group_size) // 3 + 1


def two_level_big_f(num_zones: int) -> int:
    """Top-level tolerance ``F`` of a two-level deployment: ``Z = 2F+1``."""
    return (num_zones - 1) // 2


def sync_group_size(f: int) -> int:
    """Group size of a *synchronous* BFT zone tolerating ``f``: ``2f+1``.

    Under the bounded-delay assumption (Abraham et al., PAPERS.md) a
    zone needs only ``2f+1`` replicas to tolerate ``f`` Byzantine
    members, trading the partial-synchrony safety margin for a smaller
    replication factor.
    """
    return 2 * f + 1


def sync_commit_quorum(f: int) -> int:
    """Certificate / commit quorum of a synchronous zone: ``f+1``.

    With ``n = 2f+1`` any two ``f+1`` quorums intersect in at least one
    correct replica, which suffices for agreement when message delays
    are bounded.
    """
    return f + 1
