"""Wide-area latency model.

The paper deploys zones across seven AWS regions and cites the cloudping
inter-region round-trip-time grid. We embed a static RTT matrix (ms, typical
public cloudping values for those regions) and derive one-way message
latencies from it, with multiplicative jitter.

Intra-zone links (nodes of the same zone sit in one data center) use a small
LAN round-trip time.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import ConfigurationError

__all__ = ["Region", "RTT_MATRIX_MS", "LatencyModel", "DEFAULT_REGION_CYCLE"]


class Region(str, Enum):
    """AWS regions used in the paper's deployment."""

    CALIFORNIA = "CA"   # us-west-1
    OHIO = "OH"         # us-east-2
    QUEBEC = "QC"       # ca-central-1
    SYDNEY = "SYD"      # ap-southeast-2
    PARIS = "PAR"       # eu-west-3
    LONDON = "LDN"      # eu-west-2
    TOKYO = "TY"        # ap-northeast-1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Round-trip times in milliseconds between regions (symmetric). Values are
#: representative cloudping.co numbers for the seven regions the paper uses.
RTT_MATRIX_MS: dict[frozenset[Region], float] = {}


def _rtt(a: Region, b: Region, ms: float) -> None:
    RTT_MATRIX_MS[frozenset((a, b))] = ms


_rtt(Region.CALIFORNIA, Region.OHIO, 50.0)
_rtt(Region.CALIFORNIA, Region.QUEBEC, 76.0)
_rtt(Region.CALIFORNIA, Region.SYDNEY, 139.0)
_rtt(Region.CALIFORNIA, Region.PARIS, 142.0)
_rtt(Region.CALIFORNIA, Region.LONDON, 137.0)
_rtt(Region.CALIFORNIA, Region.TOKYO, 107.0)
_rtt(Region.OHIO, Region.QUEBEC, 26.0)
_rtt(Region.OHIO, Region.SYDNEY, 186.0)
_rtt(Region.OHIO, Region.PARIS, 92.0)
_rtt(Region.OHIO, Region.LONDON, 86.0)
_rtt(Region.OHIO, Region.TOKYO, 156.0)
_rtt(Region.QUEBEC, Region.SYDNEY, 208.0)
_rtt(Region.QUEBEC, Region.PARIS, 86.0)
_rtt(Region.QUEBEC, Region.LONDON, 78.0)
_rtt(Region.QUEBEC, Region.TOKYO, 158.0)
_rtt(Region.SYDNEY, Region.PARIS, 280.0)
_rtt(Region.SYDNEY, Region.LONDON, 264.0)
_rtt(Region.SYDNEY, Region.TOKYO, 104.0)
_rtt(Region.PARIS, Region.LONDON, 9.0)
_rtt(Region.PARIS, Region.TOKYO, 222.0)
_rtt(Region.LONDON, Region.TOKYO, 211.0)

#: Region assignment order used by the paper for 3-, 5- and 7-zone setups.
DEFAULT_REGION_CYCLE: tuple[Region, ...] = (
    Region.CALIFORNIA,
    Region.OHIO,
    Region.QUEBEC,
    Region.SYDNEY,
    Region.PARIS,
    Region.LONDON,
    Region.TOKYO,
)


def regions_for_zones(num_zones: int) -> list[Region]:
    """Return the paper's region placement for ``num_zones`` zones.

    The paper places 3 zones in CA/OH/QC, 5 zones in CA/SYD/PAR/LDN/TY and
    7 zones in all seven regions. Beyond 7, regions repeat round-robin.
    """
    if num_zones <= 0:
        raise ConfigurationError("num_zones must be positive")
    if num_zones == 5:
        return [Region.CALIFORNIA, Region.SYDNEY, Region.PARIS,
                Region.LONDON, Region.TOKYO]
    cycle = DEFAULT_REGION_CYCLE
    return [cycle[i % len(cycle)] for i in range(num_zones)]


@dataclass
class LatencyModel:
    """Round-trip times between regions, and how much they jitter.

    A message's one-way latency is half the RTT, scaled by a uniform
    multiplicative jitter in ``[1 - jitter, 1 + jitter]``; the network
    samples it per link from its own seeded generator
    (:meth:`repro.sim.network.Network.multicast`).

    Attributes:
        lan_rtt_ms: round-trip time between nodes in the same region.
        jitter: relative jitter amplitude (0 disables jitter).
    """

    lan_rtt_ms: float = 1.0
    jitter: float = 0.05

    def rtt_ms(self, a: Region, b: Region) -> float:
        """Return the nominal round-trip time between two regions."""
        if a == b:
            return self.lan_rtt_ms
        key = frozenset((a, b))
        if key not in RTT_MATRIX_MS:
            raise ConfigurationError(f"no RTT entry for {a}-{b}")
        return RTT_MATRIX_MS[key]
