"""One intra-zone endorsement round, as a pinned unit.

The leader pre-prepares (n-1), each member sends its share to the leader
(n-1), and the leader sends the certificate it aggregated to the zone
(n-1); a prepare round adds each member's prepare to every other member
((n-1)^2). What one round puts on the network is pinned here, in zones of
four and of seven, and checked against ``analysis.complexity`` — which
prices Algorithm 1 and Algorithm 2 from it. Run as a script it prints
what CI shows in the job summary.
"""

import pytest

from repro.analysis.complexity import endorsement_messages
from repro.consensus import pbft_profile
from repro.core.endorsement import EndorsementManager
from repro.core.zone import ZoneInfo
from repro.crypto.digest import digest
from repro.crypto.keys import KeyRegistry
from repro.pbft.host import HostNode
from repro.quorums import max_faulty
from repro.sim.events import Simulator
from repro.sim.latency import LatencyModel, Region
from repro.sim.network import Network

#: Messages of one round by (zone size, with a prepare round).
ROUND_MESSAGES = {(4, False): 9, (4, True): 18, (7, False): 18, (7, True): 54}


def one_round(n, with_prepare):
    """The messages one round of a zone of ``n`` bare hosts sends, by
    type."""
    sim = Simulator()
    network = Network(sim, LatencyModel(), seed=21)
    keys = KeyRegistry(seed=21)
    members = tuple(f"n{i}" for i in range(n))
    zone = ZoneInfo("z", members, Region.CALIFORNIA,
                    pbft_profile(max_faulty(n)))
    managers = []
    for node_id in members:
        host = HostNode(sim, network, keys, node_id)
        network.register(host, Region.CALIFORNIA)
        managers.append(EndorsementManager(host, zone,
                                           view_provider=lambda: 0))
    certs = []
    managers[0].lead("test/1", "p", digest("p"), use_prepare=with_prepare,
                     on_cert=certs.append)
    sim.run(until=1_000)
    assert len(certs) == 1
    assert all(manager.instance_state("test/1").done for manager in managers)
    return dict(network.stats.by_type)


@pytest.mark.parametrize("n,with_prepare", sorted(ROUND_MESSAGES))
def test_one_round_sends_what_the_model_prices(n, with_prepare):
    sent = one_round(n, with_prepare)
    assert sum(sent.values()) == ROUND_MESSAGES[n, with_prepare] \
        == endorsement_messages(n, with_prepare)
    # n-1 shares in, n-1 certificates out; the leader sends no vote.
    assert sent["EndorseVote"] == 2 * (n - 1)
    assert sent["EndorsePrePrepare"] == n - 1
    assert sent.get("EndorsePrepare", 0) == (n - 1) ** 2 * with_prepare


if __name__ == "__main__":
    def pair(count):
        return " / ".join(str(count(n)) for n in (4, 7))
    measured = {prepare: pair(lambda n: sum(one_round(n, prepare).values()))
                for prepare in (False, True)}
    priced = {prepare: pair(lambda n: endorsement_messages(n, prepare))
              for prepare in (False, True)}
    print(f"one round in zones of 4 / 7: {measured[False]} messages, "
          f"{measured[True]} with a prepare round (endorsement_messages: "
          f"{priced[False]}, {priced[True]})")
