"""Unit tests for the intra-zone endorsement machinery."""

import dataclasses
from types import SimpleNamespace

from repro.consensus import pbft_profile
from repro.crypto.certificates import QuorumCertificate
from repro.crypto.digest import digest
from repro.crypto.keys import KeyRegistry
from repro.crypto.threshold import ThresholdCertificate, combine_threshold
from repro.core.endorsement import EndorsementManager
from repro.core.zone import ZoneInfo
from repro.messages.base import sign_message
from repro.messages.endorse import EndorsePrepare, EndorseVote
from repro.pbft.faults import make_behavior
from repro.pbft.host import HostNode
from repro.sim.events import Simulator
from repro.sim.latency import LatencyModel, Region
from repro.sim.network import Network


def build_zone(n=4, f=1, use_threshold=False, behaviors=None, seed=21,
               view=None):
    """``n`` bare hosts, one endorsement manager each; with ``view`` (a
    one-key dict the managers read their view from) each host carries the
    ``on_view_change`` hook list a replica would."""
    sim = Simulator()
    net = Network(sim, LatencyModel(), seed=seed)
    keys = KeyRegistry(seed=seed)
    members = tuple(f"n{i}" for i in range(n))
    zone = ZoneInfo("z", members, Region.CALIFORNIA, pbft_profile(f))
    behaviors = behaviors or {}
    hosts, managers = [], []
    for i, node_id in enumerate(members):
        host = HostNode(sim, net, keys, node_id,
                        behavior=make_behavior(behaviors.get(i, "honest")))
        net.register(host, Region.CALIFORNIA)
        if view is not None:
            host.replica = SimpleNamespace(on_view_change=[])
        manager = EndorsementManager(
            host, zone, view_provider=lambda: 0 if view is None
            else view["v"], use_threshold=use_threshold)
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
    """A pre-prepare its validator answers "retry" is held, not polled,
    and endorses once the engine that owns the instance replays it."""
    sim, hosts, managers = build_zone()
    ready = {"flag": False}

    def validator(instance, payload, payload_digest):
        return True if ready["flag"] else "retry"

    for manager in managers[1:]:
        manager.register_kind("test", validator=validator)
    certs = []
    managers[0].lead("test/1", "p", digest("p"), use_prepare=False,
                     on_cert=certs.append)
    sim.run(until=500)
    assert certs == []
    ready["flag"] = True
    for manager in managers[1:]:
        manager.replay("test/1")
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


def test_retire_lets_a_finished_instance_go():
    """The unit is served: the payload, the shares and the leader's
    callback go; the digest, the flags and the quorum's certificate stay,
    and the instance still answers for itself."""
    sim, hosts, managers = build_zone()
    certs = []
    managers[0].lead("test/1", "p", digest("p"), use_prepare=False,
                     on_cert=certs.append)
    sim.run(until=100)
    for manager in managers:
        manager.retire("test/1")
        state = manager.instance_state("test/1")
        assert state.payload is None and state.shares is None
        assert state.prepare_senders is None and state.on_cert is None
        assert state.done and state.endorse_digest == digest("p")
        assert manager.has_instance("test/1")
    # The backups voted, and the leader's share is counted where it leads.
    assert [m.instance_state("test/1").voted for m in managers] \
        == [True, True, True, True]
    assert managers[0].instance_state("test/1").cert == certs[0]
    assert managers[0].relead("test/1", False, certs.append)
    assert certs[1] is certs[0]
    managers[0].retire("test/never-seen")        # nothing to let go
    assert not managers[0].has_instance("test/never-seen")


def test_retire_waits_for_the_quorum_and_for_the_vote():
    sim, hosts, managers = build_zone()
    managers[0].lead("test/1", "p", digest("p"), use_prepare=True,
                     on_cert=lambda cert: None)
    for manager in managers:
        manager.retire("test/1")      # served before anything happened
    assert managers[0].instance_state("test/1").payload == "p"
    assert managers[1].instance_state("test/1") is None
    sim.run(until=100)
    # Opened after the unit was served (a lagging member): still endorsed
    # in full, and let go as the quorum and the vote are both in.
    for manager in managers[:1]:
        state = manager.instance_state("test/1")
        assert state.done and state.voted and state.payload is None
    for manager in managers[1:]:
        assert manager.instance_state("test/1").payload == "p"
        manager.retire("test/1")
        assert manager.instance_state("test/1").payload is None


def test_a_new_digest_reopens_an_instance_that_was_let_go():
    """``lead`` with another digest restarts a finished instance today
    (a re-proposal under a new primary); letting go does not change it."""
    sim, hosts, managers = build_zone()
    certs = []
    managers[0].lead("test/1", "A", digest("A"), use_prepare=False,
                     on_cert=certs.append)
    sim.run(until=100)
    managers[0].retire("test/1")
    managers[0].lead("test/1", "B", digest("B"), use_prepare=False,
                     on_cert=certs.append)
    state = managers[0].instance_state("test/1")
    assert not state.done and state.payload == "B" and len(state.shares) == 1
    assert len(certs) == 1


# ----------------------------------------------------------------------
# What a zone member can park here ahead of a pre-prepare is bounded
# ----------------------------------------------------------------------
#: What one member may park at a peer (``_PARKED_PER_MEMBER``), against
#: the ten thousand it tries.
ALLOWANCE = 256


def _send(hosts, keys, src, dst, payload):
    hosts[0].network.send(src, dst, sign_message(keys, src, payload))


def _ghost_traffic(hosts, src, dst, count):
    """``count`` well-signed votes and prepares from member ``src`` for
    instances that will never exist."""
    keys = hosts[0].keys
    for i in range(count):
        name, body = f"test/ghost-{i}", digest(("ghost", i))
        if i % 2:
            message = EndorseVote(instance=name, view=0, endorse_digest=body,
                                  share=keys.sign(src, body), sender=src)
        else:
            message = EndorsePrepare(instance=name, view=0,
                                     endorse_digest=body, sender=src)
        _send(hosts, keys, src, dst, message)


def test_fabricated_instance_names_stay_bounded_and_the_zone_works_on():
    sim, hosts, managers = build_zone()
    _ghost_traffic(hosts, "n1", "n2", 10_000)
    sim.run(until=1_000)
    assert hosts[2].invalid_messages == 0       # nothing wrong to see yet
    assert len(managers[2]._instances) <= ALLOWANCE
    certs, observed = [], []
    managers[2].register_kind(
        "test", on_quorum=lambda inst, payload, cert: observed.append(inst))
    managers[0].lead("test/1", "p", digest("p"), use_prepare=True,
                     on_cert=certs.append)
    sim.run(until=2_000)
    assert len(certs) == 1 and observed == ["test/1"]
    assert len(managers[2]._instances) <= ALLOWANCE + 1


def test_a_genuine_early_vote_still_aggregates_under_the_flood():
    """n3's vote reaches the leader n0 before n0 leads the instance; n1
    then parks ten thousand names of its own there. Only n1's own are
    displaced: with n1 and n3 mute from here on, n0's quorum is its own
    share, n2's and the one that came early — and n2, whose share alone
    went to n0, finishes on the certificate n0 sends it."""
    sim, hosts, managers = build_zone()
    body = digest("p")
    early = EndorseVote(instance="test/1", view=0, endorse_digest=body,
                        share=hosts[0].keys.sign("n3", body), sender="n3")
    _send(hosts, hosts[0].keys, "n3", "n0", early)
    _ghost_traffic(hosts, "n1", "n0", 10_000)
    sim.run(until=1_000)
    for mute in (1, 3):
        hosts[mute].set_behavior("silent")
    managers[0].lead("test/1", "p", body, use_prepare=False,
                     on_cert=lambda cert: None)
    sim.run(until=2_000)
    state = managers[0].instance_state("test/1")
    assert state.done and sorted(state.shares) == ["n0", "n2", "n3"]
    assert sorted(state.cert.signers) == ["n0", "n2", "n3"]
    assert managers[2].instance_state("test/1").done
    assert managers[2].instance_state("test/1").cert == state.cert


def test_a_held_pre_prepare_is_kept_once_on_its_primarys_allowance():
    """Nothing re-dispatches a held pre-prepare on a timer: it waits,
    counted against the allowance of the primary that sent it (so a
    faulty primary's never-ready instances displace only its own), until
    a replay validates it again; refused then, it is held no more."""
    sim, hosts, managers = build_zone()
    verdicts = {"test/stuck": "retry", "test/refused": "retry"}
    for manager in managers[1:]:
        manager.register_kind(
            "test", validator=lambda inst, payload, d: verdicts[inst])
    for name in verdicts:
        managers[0].lead(name, name, digest(name), use_prepare=False,
                         on_cert=lambda cert: None)
    sim.run(until=100)

    def held(manager):
        return {name for name, state in manager._instances.items()
                if state.deferred is not None}

    events = sim.events_processed
    sim.run(until=5_000)
    assert sim.events_processed == events
    assert all(held(manager) == set(verdicts) for manager in managers[1:])
    assert managers[1]._parked["n0"] == 2
    verdicts["test/refused"] = False
    for manager in managers[1:]:
        manager.replay("test/refused")
    assert all(held(manager) == {"test/stuck"} for manager in managers[1:])
    assert not managers[1].has_instance("test/stuck")


# ----------------------------------------------------------------------
# Votes go to the leader, its certificate to the zone
# ----------------------------------------------------------------------
def test_a_round_sends_each_share_to_the_leader_and_its_certificate_back():
    sim, hosts, managers = build_zone()
    certs = []
    managers[0].lead("test/1", "p", digest("p"), use_prepare=False,
                     on_cert=certs.append)
    sim.run(until=100)
    stats = hosts[0].network.stats.by_type
    assert (stats["EndorsePrePrepare"], stats["EndorseVote"]) == (3, 6)
    for manager in managers[1:]:
        state = manager.instance_state("test/1")
        # A member banks no share, only the leader's certificate.
        assert state.done and state.shares == {} and state.cert == certs[0]


def test_a_certificate_that_does_not_prove_the_quorum_is_refused():
    """A member checks the leader's certificate in full: a digest, signers
    or threshold it does not prove is refused and booked, and the member
    finishes on the genuine one."""
    sim, hosts, managers = build_zone(use_threshold=True)
    keys, body = hosts[0].keys, digest("p")
    genuine = combine_threshold(keys, body, [keys.sign(m, body)
                                             for m in ("n0", "n1", "n2")],
                                managers[0].zone.member_set, 3)
    for cert in (dataclasses.replace(genuine, threshold=2),
                 dataclasses.replace(genuine, threshold="3"),
                 dataclasses.replace(genuine, payload_digest=digest("q")),
                 dataclasses.replace(genuine, tag=bytes(32)),
                 QuorumCertificate.aggregate(body, [keys.sign("n0", body)])):
        vote = EndorseVote(instance="test/1", view=0, endorse_digest=body,
                           share=None, sender="n0", cert=cert)
        _send(hosts, keys, "n0", "n1", vote)
    sim.run(until=100)
    assert hosts[1].invalid_messages == 5
    assert not managers[1].has_instance("test/1")
    managers[0].lead("test/1", "p", body, use_prepare=False,
                     on_cert=lambda cert: None)
    sim.run(until=200)
    assert managers[1].instance_state("test/1").done


def test_the_shares_a_failed_leader_held_reach_the_next_primary():
    """n0 pre-prepares and falls silent: the three shares went to it and
    no member holds them. When view 1 activates, each member that voted
    sends its share to n1 — which counts its own — so n1 finishes the
    instance and sends its certificate to the zone without re-leading."""
    view = {"v": 0}
    sim, hosts, managers = build_zone(view=view)
    observed = []
    for manager in managers:
        manager.register_kind(
            "test", on_quorum=lambda inst, payload, cert,
            m=manager: observed.append(m.host.node_id))
    managers[0].lead("test/1", "p", digest("p"), use_prepare=False,
                     on_cert=lambda cert: None)
    hosts[0].set_behavior("silent")
    sim.run(until=100)
    assert observed == ["n0"]
    assert [m.instance_state("test/1").voted for m in managers[1:]] \
        == [True, True, True]
    view["v"] = 1
    for host in hosts[1:]:
        for callback in host.replica.on_view_change:
            callback()
    sim.run(until=200)
    assert sorted(observed) == ["n0", "n1", "n2", "n3"]
    assert sorted(managers[1].instance_state("test/1").shares) \
        == ["n1", "n2", "n3"]


def test_a_watch_on_an_instance_never_seen_asks_the_zone_before_it_suspects():
    """ROADMAP D1(iv): n3 was down while its zone finished ``test/1``, so
    when its primary watch on it expires it has no record of it. It asks
    the zone for the certificate and, holding it, suspects nobody.
    ``test/2``, which no primary opened, is suspected as soon as a member
    answers that it holds no certificate either (f + 1 lack it)."""
    view = {"v": 0}
    sim, hosts, managers = build_zone(view=view)
    suspected = []
    for host in hosts:
        host.replica.judged_view = 0
        host.replica.view_changes = SimpleNamespace(
            suspect=lambda armed_in, h=host: suspected.append(
                (h.node_id, sim.now, armed_in)))
    for manager in managers:
        manager.register_kind("test")
    hosts[3].crash()
    managers[0].lead("test/1", "p", digest("p"), use_prepare=False,
                     on_cert=lambda cert: None)
    sim.run(until=100)
    assert managers[3].instance_state("test/1") is None
    hosts[3].recover()
    managers[3].watch("test/1", 50.0, 0)
    managers[3].watch("test/2", 50.0, 0)
    sim.run(until=400)
    assert managers[3].instance_state("test/1").cert is not None
    [(node, when, armed_in)] = suspected
    assert (node, armed_in) == ("n3", 0) and 150.0 < when < 160.0
    assert hosts[0].network.stats.by_type["EndorseQuery"] == 6


def test_an_instance_asked_about_is_not_displaced_by_a_members_flood():
    """n1's vote opened ``test/2`` at n3 on n1's allowance before n3's
    watch on it asked the zone. The ask makes the instance n3's own: n1
    then parks ten thousand names there, and n3, answered by nobody,
    still suspects when its ask expires."""
    sim, hosts, managers = build_zone(view={"v": 0})
    suspected = []
    for host in hosts:
        host.replica.judged_view = 0
        host.replica.view_changes = SimpleNamespace(
            suspect=lambda armed_in, h=host: suspected.append(
                (h.node_id, armed_in)))
    for manager in managers:
        manager.register_kind("test")
    keys, body = hosts[0].keys, digest("p")
    _send(hosts, keys, "n1", "n3", EndorseVote(
        instance="test/2", view=0, endorse_digest=body,
        share=keys.sign("n1", body), sender="n1"))
    sim.run(until=10)
    assert managers[3].instance_state("test/2").parked_by == "n1"
    for mute in (0, 1, 2):
        hosts[mute].set_behavior("silent")
    managers[3].watch("test/2", 50.0, 0)
    sim.run(until=70)
    _ghost_traffic(hosts, "n1", "n3", 10_000)
    sim.run(until=200)
    assert managers[3].instance_state("test/2") is not None
    assert suspected == [("n3", 0)]
