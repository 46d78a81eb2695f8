"""Closed-form message-complexity models (paper §I, §IV).

The paper's core complexity claims: PBFT is quadratic in the number of
participants, so flat PBFT over all ``Z(3f+1)`` nodes is impractical at
geo scale; Ziziphus's data synchronization protocol is *linear* at the
top level (only zone primaries talk across zones, certificates replace
all-to-all checks) and needs only a majority of zones.

These functions model the exact message counts of *this implementation*
(tests validate them against measured network traffic), plus asymptotic
helpers used to check the linear-vs-quadratic claim.
"""

from __future__ import annotations

from repro.quorums import (group_size, intra_zone_quorum, max_faulty,
                           two_level_big_f)

__all__ = [
    "endorsement_messages",
    "view_change_messages",
    "view_change_units",
    "catch_up_messages",
    "read_messages",
    "pbft_batch_messages",
    "ziziphus_migration_messages",
    "flat_pbft_batch_messages",
    "top_level_messages",
]


def endorsement_messages(zone_size: int, with_prepare: bool) -> int:
    """Messages of one intra-zone endorsement round.

    The primary multicasts a pre-prepare (n-1), every backup sends its
    vote to the primary (n-1), and the primary multicasts the certificate
    it aggregated (n-1): 3(n-1). With the PBFT-style prepare round each
    backup also multicasts a prepare ((n-1)^2 more).
    """
    n = zone_size
    base = 3 * (n - 1)
    if with_prepare:
        base += (n - 1) ** 2
    return base


def view_change_messages(zone_size: int) -> tuple[int, int]:
    """VIEW-CHANGE and NEW-VIEW messages of one view change after the
    primary of a zone of ``n`` crashed: each of the ``n-1`` live members
    multicasts its VIEW-CHANGE to the ``n-1`` others, the crashed one
    included, and the new primary multicasts NEW-VIEW to them once it
    holds ``2f+1`` — and sends it again to each member whose VIEW-CHANGE
    reaches it after that (``n-1-(2f+1)`` of them). Proofs go by
    reference, so nobody fetches what it already verified."""
    live = zone_size - 1
    late = live - intra_zone_quorum(max_faulty(zone_size))
    return live * live, live + late


def view_change_units(zone_size: int, batches: int) -> tuple[int, int]:
    """Signature units of one VIEW-CHANGE and of the NEW-VIEW when ``k``
    prepared batches carry over: a VIEW-CHANGE names its proofs by
    reference, so it is its own signature (1); a NEW-VIEW holds the
    ``2f+1`` VIEW-CHANGEs it was assembled from and re-proposes each
    batch by digest (``1 + (2f+1) + k``), whatever the batches hold."""
    quorum = intra_zone_quorum(max_faulty(zone_size))
    return 1, 1 + quorum + batches


def catch_up_messages(zone_size: int, slots: int) -> tuple[int, int]:
    """CHECKPOINT-FETCH and GAP-REPLY messages of a replica's gap of
    ``slots`` slots that no snapshot covers: it multicasts its ask to the
    ``n-1`` others, and each that executed the slots reports each one
    with a reply of its own, the slot's pre-prepare."""
    others = zone_size - 1
    return others, others * slots


def read_messages(zone_size: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """READ-REQUEST and READ-REPLY messages of one certified read in a
    zone of ``n``: fault-free, one request to one member and its reply,
    which completes the read; when that member's answer is unusable, the
    request goes once to the ``n-1`` others, and up to ``n`` replies come
    back in all."""
    return (1, 1), (1 + (zone_size - 1), zone_size)


def pbft_batch_messages(group_size: int, batch: int) -> int:
    """Messages to order and answer one PBFT batch of ``batch`` requests.

    requests in + pre-prepare + prepares (backups all-to-all) + commits
    (everyone all-to-all) + replies.
    """
    n = group_size
    return (batch                      # client requests to the primary
            + (n - 1)                  # pre-prepare
            + (n - 1) ** 2             # prepares
            + n * (n - 1)              # commits
            + n * batch)               # replies


def ziziphus_migration_messages(zones: int, zone_size: int,
                                batch: int = 1,
                                migrations_in_batch: int = 1,
                                groups: int = 1) -> int:
    """Messages for one stable-leader global batch plus data migration.

    Phases: accept endorsement (with prepare; the ballot is assigned
    here), ACCEPT fan-out, per-follower accepted endorsements (no
    prepare), ACCEPTED fan-ins, commit endorsement (no prepare), COMMIT
    fan-out, initiator-zone replies; then per *group* (the migrations the
    batch moves from one source zone to one destination zone) the
    Algorithm 2 state endorsement (with prepare), STATE fan-out and
    append endorsement (no prepare), and per migrating client the
    destination-zone replies.
    """
    n, z = zone_size, zones
    total = batch                                       # requests in
    total += endorsement_messages(n, with_prepare=True)  # accept phase
    total += (z - 1) * n                                # ACCEPT fan-out
    total += (z - 1) * endorsement_messages(n, False)   # follower endorse
    total += (z - 1) * n                                # ACCEPTED fan-in
    total += endorsement_messages(n, with_prepare=False)  # commit phase
    total += z * n - 1                                  # COMMIT fan-out
    total += n * batch                                  # initiator replies
    per_group = (endorsement_messages(n, with_prepare=True)  # state
                 + n                                    # STATE fan-out
                 + endorsement_messages(n, False))      # append
    total += groups * per_group + migrations_in_batch * n  # dest replies
    return total


def flat_pbft_batch_messages(zones: int, f_per_zone: int,
                             batch: int) -> int:
    """Flat PBFT over the paper's ``3 Z f + 1`` node group."""
    return pbft_batch_messages(group_size(zones * f_per_zone), batch)


def top_level_messages(protocol: str, zones: int) -> int:
    """Cross-zone (WAN) messages of the top level of one global decision,
    counting only traffic between zones — the quantity the paper's
    linear-vs-quadratic argument is about.

    - Ziziphus: ACCEPT to Z-1 zones' primaries + ACCEPTED back + COMMIT
      out: O(Z).
    - two-level PBFT: pre-prepare + prepare (all-to-all) + commit
      (all-to-all) among 3F+1 representatives, Z = 2F+1: O(Z^2).
    """
    if protocol == "ziziphus":
        return 3 * (zones - 1)
    if protocol == "two-level":
        big_f = two_level_big_f(zones)
        reps = group_size(big_f)
        return (reps - 1) + (reps - 1) ** 2 + reps * (reps - 1)
    raise ValueError(f"unknown protocol {protocol!r}")
