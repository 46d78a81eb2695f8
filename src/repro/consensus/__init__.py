"""Pluggable consensus backends (:class:`ConsensusEngine` interface).

See DESIGN.md §"ConsensusEngine contract". Public surface:

- :mod:`repro.consensus.profile` — :class:`QuorumProfile` and the
  ``pbft``/``syncbft`` sizing factories.
- :mod:`repro.consensus.engine` — the global engine interface and the
  built-in implementations.
- :mod:`repro.consensus.registry` — named backends for ``--backend``.
"""

from repro.consensus.engine import (ROTATING_INITIATOR, STABLE_INITIATOR,
                                    GlobalEngine, RotatingInitiatorEngine,
                                    StableInitiatorEngine)
from repro.consensus.profile import QuorumProfile, pbft_profile, sync_profile
from repro.consensus.registry import (BACKENDS, DEFAULT_BACKEND, BackendSpec,
                                      backend_names, get_backend)

__all__ = [
    "QuorumProfile", "pbft_profile", "sync_profile",
    "GlobalEngine", "StableInitiatorEngine", "RotatingInitiatorEngine",
    "STABLE_INITIATOR", "ROTATING_INITIATOR",
    "BackendSpec", "BACKENDS", "DEFAULT_BACKEND", "get_backend",
    "backend_names",
]
