"""Probabilistic safety of random node-to-zone assignment (paper §V-B).

Proposition 5.3 contrasts Ziziphus's *deterministic* safety (pre-formed
zones with at most ``f`` faulty nodes each) with the *probabilistic*
safety of randomly assigning nodes to zones (as AHL [15] and OmniLedger
[25] do): a random zone of size ``3f+1`` drawn from a population with a
fraction of Byzantine nodes may exceed its fault budget. The paper cites
AHL needing ~80-node committees for ``1 - 2^-20`` safety.

This module computes those probabilities exactly (hypergeometric /
binomial tails) so the trade-off can be quantified and tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.quorums import max_faulty

__all__ = ["zone_failure_probability", "deployment_failure_probability",
           "minimum_zone_size", "AssignmentAnalysis", "analyze_assignment"]


def _hypergeom_pmf(k: int, population: int, bad: int, draws: int) -> float:
    """P[X = k] for X ~ Hypergeometric(population, bad, draws)."""
    if k < 0 or k > draws or k > bad or draws - k > population - bad:
        return 0.0
    return (math.comb(bad, k) * math.comb(population - bad, draws - k)
            / math.comb(population, draws))


def zone_failure_probability(population: int, byzantine: int,
                             zone_size: int) -> float:
    """P[a random zone of ``zone_size`` draws more than floor((z-1)/3)
    Byzantine nodes from a population with ``byzantine`` bad nodes]."""
    budget = max_faulty(zone_size)
    return sum(_hypergeom_pmf(k, population, byzantine, zone_size)
               for k in range(budget + 1, zone_size + 1))


def deployment_failure_probability(population: int, byzantine: int,
                                   zone_size: int, zones: int) -> float:
    """Union-bound probability that *some* zone exceeds its fault budget.

    (Zones are drawn without replacement so the events are negatively
    correlated; the union bound is a safe over-estimate.)
    """
    single = zone_failure_probability(population, byzantine, zone_size)
    return min(1.0, zones * single)


def minimum_zone_size(byzantine_fraction: float,
                      target_failure: float = 2.0 ** -20,
                      max_size: int = 400) -> int:
    """Smallest zone size whose failure probability under an infinite
    population with ``byzantine_fraction`` bad nodes is below target.

    Uses the binomial tail (the infinite-population limit of the
    hypergeometric). Reproduces the paper's observation that ~80-node
    committees are needed for 1 - 2^-20 at the usual fault fractions.
    """
    for size in range(4, max_size + 1, 3):   # sizes of the form 3f+1
        budget = max_faulty(size)
        tail = sum(math.comb(size, k)
                   * byzantine_fraction ** k
                   * (1 - byzantine_fraction) ** (size - k)
                   for k in range(budget + 1, size + 1))
        if tail <= target_failure:
            return size
    raise ValueError("no zone size up to max_size meets the target")


@dataclass(frozen=True)
class AssignmentAnalysis:
    """Summary of the deterministic-vs-random assignment trade-off."""

    population: int
    byzantine: int
    zones: int
    zone_size: int
    per_zone_failure: float
    deployment_failure: float
    deterministic_safe: bool

    def safety_bits(self) -> float:
        """-log2 of the deployment failure probability (inf if zero)."""
        if self.deployment_failure <= 0.0:
            return float("inf")
        return -math.log2(self.deployment_failure)


def analyze_assignment(zones: int, zone_size: int,
                       byzantine: int) -> AssignmentAnalysis:
    """Analyze random assignment of ``zones * zone_size`` nodes into
    ``zones`` zones with ``byzantine`` bad nodes total."""
    population = zones * zone_size
    if byzantine > population:
        raise ValueError("more Byzantine nodes than nodes")
    per_zone = zone_failure_probability(population, byzantine, zone_size)
    overall = deployment_failure_probability(population, byzantine,
                                             zone_size, zones)
    # Deterministic placement (Ziziphus's assumption): safe iff the bad
    # nodes can be spread with at most f per zone.
    budget = max_faulty(zone_size)
    deterministic_safe = byzantine <= zones * budget
    return AssignmentAnalysis(population=population, byzantine=byzantine,
                              zones=zones, zone_size=zone_size,
                              per_zone_failure=per_zone,
                              deployment_failure=overall,
                              deterministic_safe=deterministic_safe)
