"""Standalone PBFT node: a host process running exactly one replica.

Used by the flat-PBFT baseline (one group spanning all regions) and by the
PBFT unit/integration tests.
"""

from __future__ import annotations

from typing import Any

from repro.consensus.profile import pbft_profile
from repro.crypto.keys import KeyRegistry
from repro.pbft.faults import Behavior
from repro.pbft.host import HostNode
from repro.pbft.replica import PBFTConfig, PBFTReplica
from repro.sim.events import Simulator
from repro.sim.network import Network
from repro.sim.process import CostModel

__all__ = ["PBFTNode"]


class PBFTNode(HostNode):
    """A network node whose only engine is a PBFT replica."""

    def __init__(self, sim: Simulator, network: Network, keys: KeyRegistry,
                 node_id: str, group: tuple[str, ...], f: int, app: Any,
                 config: PBFTConfig | None = None,
                 cost_model: CostModel | None = None,
                 behavior: Behavior | None = None) -> None:
        super().__init__(sim, network, keys, node_id,
                         cost_model=cost_model, behavior=behavior)
        self.replica = PBFTReplica(host=self, group=group,
                                   profile=pbft_profile(f), app=app,
                                   config=config)
