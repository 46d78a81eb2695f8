"""Registry of named consensus backends.

A *backend* pairs one zone sizing (a quorum-profile factory) with one
global engine; the name is what ``--backend`` on the CLIs,
``ZiziphusConfig.backend``, and the ``backend`` column of bench/resilience
reports refer to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.consensus.engine import (ROTATING_INITIATOR, STABLE_INITIATOR,
                                    GlobalEngine)
from repro.consensus.profile import QuorumProfile, pbft_profile, sync_profile
from repro.errors import ConfigurationError

__all__ = ["BackendSpec", "BACKENDS", "DEFAULT_BACKEND", "get_backend",
           "backend_names"]


@dataclass(frozen=True)
class BackendSpec:
    """A named (zone sizing, global engine) pairing.

    ``profile(f)`` says how a zone is sized and when its certificates
    are valid. Soundness obligation: any two ``certificate_quorum``-sized
    sets of the zone's ``group_size`` members must intersect in at least
    one *correct* replica under the profile's fault model.
    """

    name: str
    description: str
    profile: Callable[[int], QuorumProfile]
    sync: GlobalEngine


DEFAULT_BACKEND = "default"

BACKENDS: dict[str, BackendSpec] = {
    "default": BackendSpec(
        name="default",
        description="Paper protocol: PBFT zones (3f+1), stable initiator",
        profile=pbft_profile, sync=STABLE_INITIATOR),
    "rotating": BackendSpec(
        name="rotating",
        description="PBFT zones, rotating initiators on a partitioned "
                    "sequence space (ezBFT-style)",
        profile=pbft_profile, sync=ROTATING_INITIATOR),
    "syncbft": BackendSpec(
        name="syncbft",
        description="Synchronous-BFT zones (2f+1, bounded delay), stable "
                    "initiator",
        profile=sync_profile, sync=STABLE_INITIATOR),
}


def get_backend(name: str) -> BackendSpec:
    """Resolve a backend name; raise ConfigurationError when unknown."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown consensus backend {name!r}; "
            f"registered: {', '.join(sorted(BACKENDS))}") from None


def backend_names() -> tuple[str, ...]:
    """Registered backend names, default first."""
    rest = sorted(n for n in BACKENDS if n != DEFAULT_BACKEND)
    return (DEFAULT_BACKEND, *rest)
