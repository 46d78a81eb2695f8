"""Unit tests for the intra-zone endorsement machinery."""

from repro.crypto.certificates import QuorumCertificate
from repro.crypto.digest import digest
from repro.crypto.keys import KeyRegistry
from repro.crypto.threshold import ThresholdCertificate
from repro.core.endorsement import EndorsementManager
from repro.pbft.faults import make_behavior
from repro.pbft.host import HostNode
from repro.sim.events import Simulator
from repro.sim.latency import LatencyModel, Region
from repro.sim.network import Network


def build_zone(n=4, f=1, use_threshold=False, behaviors=None, seed=21):
    sim = Simulator()
    net = Network(sim, LatencyModel(), seed=seed)
    keys = KeyRegistry(seed=seed)
    members = tuple(f"n{i}" for i in range(n))
    behaviors = behaviors or {}
    hosts, managers = [], []
    for i, node_id in enumerate(members):
        host = HostNode(sim, net, keys, node_id,
                        behavior=make_behavior(behaviors.get(i, "honest")))
        net.register(host, Region.CALIFORNIA)
        manager = EndorsementManager(host, members, f,
                                     view_provider=lambda: 0,
                                     use_threshold=use_threshold)
        hosts.append(host)
        managers.append(manager)
    return sim, hosts, managers


def test_lead_produces_quorum_certificate():
    sim, hosts, managers = build_zone()
    certs = []
    payload_digest = digest("payload")
    managers[0].lead("test/1", "payload", payload_digest,
                     use_prepare=False, on_cert=certs.append)
    sim.run(until=100)
    assert len(certs) == 1
    cert = certs[0]
    assert isinstance(cert, QuorumCertificate)
    assert cert.payload_digest == payload_digest
    assert len(cert.signers) >= 3


def test_prepare_round_runs_when_requested():
    sim, hosts, managers = build_zone()
    certs = []
    managers[0].lead("test/1", "p", digest("p"), use_prepare=True,
                     on_cert=certs.append)
    sim.run(until=100)
    assert len(certs) == 1
    # The prepare round adds one LAN phase: still fast but measurable.
    assert hosts[0].network.stats.by_type["EndorsePrepare"] > 0


def test_every_node_observes_quorum():
    sim, hosts, managers = build_zone()
    observed = []
    for manager in managers:
        manager.register_kind(
            "test", on_quorum=lambda inst, payload, cert,
            m=manager: observed.append(m.host.node_id))
    managers[0].lead("test/1", "p", digest("p"), use_prepare=False,
                     on_cert=lambda cert: None)
    sim.run(until=100)
    assert sorted(observed) == ["n0", "n1", "n2", "n3"]


def test_validator_rejection_blocks_votes():
    sim, hosts, managers = build_zone()
    for manager in managers:
        manager.register_kind("test", validator=lambda i, p, d: False)
    certs = []
    managers[0].lead("test/1", "p", digest("p"), use_prepare=False,
                     on_cert=certs.append)
    sim.run(until=500)
    # Only the leader's own share exists; no quorum, no certificate.
    assert certs == []


def test_retry_verdict_eventually_endorses():
    sim, hosts, managers = build_zone()
    ready = {"flag": False}

    def validator(instance, payload, payload_digest):
        return True if ready["flag"] else "retry"

    for manager in managers[1:]:
        manager.register_kind("test", validator=validator)
    certs = []
    managers[0].lead("test/1", "p", digest("p"), use_prepare=False,
                     on_cert=certs.append)
    sim.schedule(50.0, lambda: ready.update(flag=True))
    sim.run(until=1_000)
    assert len(certs) == 1


def test_conflicting_pre_prepare_not_endorsed_twice():
    """A node that endorsed digest A for an instance refuses digest B."""
    sim, hosts, managers = build_zone()
    certs = []
    managers[0].lead("test/1", "A", digest("A"), use_prepare=False,
                     on_cert=certs.append)
    sim.run(until=10)
    # Same instance, different payload: nodes must not re-vote.
    voted_before = managers[1].instance_state("test/1").voted
    managers[0].lead("test/1", "B", digest("B"), use_prepare=False,
                     on_cert=certs.append)
    sim.run(until=100)
    state = managers[1].instance_state("test/1")
    assert voted_before
    assert state.endorse_digest == digest("A")


def test_threshold_mode_returns_constant_size_cert():
    sim, hosts, managers = build_zone(use_threshold=True)
    certs = []
    managers[0].lead("test/1", "p", digest("p"), use_prepare=False,
                     on_cert=certs.append)
    sim.run(until=100)
    assert isinstance(certs[0], ThresholdCertificate)
    assert certs[0].signature_units() == 1


def test_silent_nodes_do_not_block_quorum_with_f_faults():
    sim, hosts, managers = build_zone(behaviors={3: "silent"})
    certs = []
    managers[0].lead("test/1", "p", digest("p"), use_prepare=False,
                     on_cert=certs.append)
    sim.run(until=200)
    assert len(certs) == 1
    assert "n3" not in certs[0].signers


def test_corrupt_share_does_not_count():
    sim, hosts, managers = build_zone(behaviors={2: "corrupt-signature"})
    certs = []
    managers[0].lead("test/1", "p", digest("p"), use_prepare=False,
                     on_cert=certs.append)
    sim.run(until=200)
    assert len(certs) == 1
    assert "n2" not in certs[0].signers


def test_lead_on_completed_instance_fires_immediately():
    sim, hosts, managers = build_zone()
    certs = []
    managers[0].lead("test/1", "p", digest("p"), use_prepare=False,
                     on_cert=lambda cert: None)
    sim.run(until=100)
    # A new primary re-driving the same instance gets the cert directly.
    managers[0].lead("test/1", "p", digest("p"), use_prepare=False,
                     on_cert=certs.append)
    assert len(certs) == 1


def test_discard_clears_state():
    sim, hosts, managers = build_zone()
    managers[0].lead("test/1", "p", digest("p"), use_prepare=False,
                     on_cert=lambda cert: None)
    sim.run(until=100)
    assert managers[0].has_instance("test/1")
    managers[0].discard("test/1")
    assert not managers[0].has_instance("test/1")
