"""Ring maintenance: one exchange per ring edge per period.

Counts what Chord's upkeep actually puts on the wire, by RPC inner
kind, through ``Network.on_deliver``:

* the stabilise probe (``get_neighbors``) carries the prober's ref, so
  it is also its notify and -- from the predecessor -- its keep-alive;
* ``notify`` goes out only when a reply changed the prober's successor;
* ``ping`` goes out only to a predecessor that has gone quiet;
* a finger refresh asks the finger ``owns(start)`` and runs the routed
  ``lookup`` only when that fails.
"""

from collections import Counter

import pytest

from repro.dht import chord
from repro.dht.bootstrap import build_chord_ring, owner_of, ring_is_consistent
from repro.dht.chord import ChordNode
from repro.dht.config import DhtConfig
from repro.sim.clock import SimClock
from repro.sim.latency import ConstantLatency, RegionalLatency
from repro.sim.network import Network
from repro.util.ids import ID_BITS, ID_SPACE
from repro.util.rng import SeededRng
from repro.util.serde import wire_size

LATENCY = 0.02
REPLY_KINDS = {"successors": "get_neighbors", "owns": "owns",
               "alive": "ping", "accepted": "notify"}


class Tap:
    """Every delivery as ``(time, name, src, dst)``; RPCs by inner kind."""

    def __init__(self, clock, net):
        self.clock = clock
        self.events = []
        net.on_deliver = self

    def __call__(self, src, dst, payload):
        name = payload.kind
        if name == "rpc_req":
            name = payload.inner["kind"]
        elif name == "rpc_rep":
            name = next(REPLY_KINDS[key] for key in REPLY_KINDS
                        if key in payload.inner) + "_reply"
        self.events.append((self.clock.now, name, src, dst))

    def since(self, t, name=None):
        return [e for e in self.events
                if e[0] >= t and (name is None or e[1] == name)]

    def counts(self, t=0.0):
        return Counter(e[1] for e in self.since(t))


def make_ring(n, seed=0, settle=30.0, latency=None, **config):
    clock = SimClock()
    rng = SeededRng(seed, "maintenance")
    net = Network(clock, latency or ConstantLatency(LATENCY), rng.fork("net"))
    cfg = DhtConfig(**config)
    nodes = [ChordNode(net, "m{}".format(i), cfg, rng.fork("m{}".format(i)))
             for i in range(n)]
    build_chord_ring(nodes)
    tap = Tap(clock, net)
    clock.run_for(settle)
    return clock, net, nodes, tap


@pytest.fixture
def one_slot_a_round(monkeypatch):
    monkeypatch.setattr(chord, "FINGERS_PER_ROUND", 1)


def ring_order(nodes):
    return sorted((n for n in nodes if n.alive), key=lambda n: n.id)


def neighbours(nodes, node):
    """(predecessor, successor) of ``node`` by ground truth."""
    order = ring_order(nodes)
    i = order.index(node)
    return order[i - 1], order[(i + 1) % len(order)]


class TestSettledRing:
    def test_one_probe_and_reply_per_node_per_period(self):
        clock, _net, nodes, tap = make_ring(16)
        t = clock.now
        periods = 4
        clock.run_for(periods * chord.STABILIZE_PERIOD)
        probes = Counter(e[2] for e in tap.since(t, "get_neighbors"))
        replies = Counter(e[3] for e in tap.since(t, "get_neighbors_reply"))
        assert probes == {n.address: periods for n in nodes}
        assert replies == probes
        counts = tap.counts(t)
        assert counts["notify"] == 0
        assert counts["ping"] == 0

    def test_probe_goes_to_the_successor_and_names_the_prober(self):
        clock, net, nodes, _tap = make_ring(8)
        seen = []
        net.on_deliver = lambda src, dst, p: (
            p.kind == "rpc_req" and p.inner["kind"] == "get_neighbors"
            and seen.append((src, dst, p.inner["node"])))
        clock.run_for(chord.STABILIZE_PERIOD)
        assert len(seen) == 8
        for src, dst, ref in seen:
            node = net.node(src)
            assert dst == node.successor.address
            assert ref == node.ref

    def test_finger_refresh_verifies_and_never_looks_up(self):
        clock, _net, nodes, tap = make_ring(16)
        t = clock.now
        before = [list(n.fingers) for n in nodes]
        # One full pass over every node's 160 slots.
        clock.run_for(chord.FIX_FINGERS_PERIOD * ID_BITS / chord.FINGERS_PER_ROUND)
        counts = tap.counts(t)
        assert counts["owns"] > 0
        assert counts["owns_reply"] == counts["owns"]
        assert counts["lookup"] == 0 and counts["lookup_done"] == 0
        assert [list(n.fingers) for n in nodes] == before


class TestJoin:
    def test_joiner_costs_one_notify_and_one_period(self):
        clock, net, nodes, tap = make_ring(8, seed=3)
        cfg = nodes[0].config
        joiner = ChordNode(net, "late", cfg, SeededRng(3, "late"))
        everyone = nodes + [joiner]
        pred, _succ = neighbours(everyone, joiner)
        t = clock.now
        joiner.join(nodes[0].address)
        # The parent (notify after every probe) also needed one period:
        # the joiner's predecessor learns of it at its next probe.
        clock.run_for(chord.STABILIZE_PERIOD + 1.0)
        assert ring_is_consistent(everyone)
        assert joiner.predecessor == pred.ref
        # Exactly one successor pointer moved to a node that had not
        # heard from its new predecessor: pred -> joiner. The joiner's
        # own successor learned of it from the joiner's first probe.
        notifies = tap.since(t, "notify")
        assert [(e[2], e[3]) for e in notifies] == [(pred.address, "late")]
        clock.run_for(4 * chord.STABILIZE_PERIOD)
        assert len(tap.since(t, "notify")) == 1

    def test_adopting_a_joiner_keeps_the_old_successor_listed(self):
        # 5-node ring, one late joiner between p and its successor s.
        # s's own list never names s, so p must keep s itself when it
        # puts the joiner in front: [joiner, s, s1, s2], not
        # [joiner, s1, s2, s3] -- a failover in that round skipped s.
        clock, net, nodes, _tap = make_ring(5, seed=5)
        cfg = nodes[0].config
        joiner = ChordNode(net, "late", cfg, SeededRng(5, "late"))
        pred, succ = neighbours(nodes + [joiner], joiner)
        old = list(pred.successors)
        assert old[0] == succ.ref
        joiner.join(nodes[0].address)
        for _ in range(200):
            clock.run_for(0.05)
            if pred.successor == joiner.ref:
                break
        assert pred.successors == [joiner.ref] + old[:3]


    def test_quick_rejoin_finds_its_successor(self):
        # Back 2 s after its crash: its successor still holds it as
        # predecessor and peers may still route to it. Its join lookup
        # treats it as gone, so the answer is its true successor, not
        # the joiner itself (which would orphan it) or a circling hop.
        clock, _net, nodes, _tap = make_ring(8, seed=1)
        victim = nodes[3]
        _pred, succ = neighbours(nodes, victim)
        victim.crash()
        clock.run_for(2.0)
        victim.recover(nodes[0].address)
        clock.run_for(1.0)
        assert victim.successor == succ.ref


class TestNeighborDigest:
    def test_digest_rides_the_probe_only_when_there_is_one(self):
        clock, net, nodes, _tap = make_ring(8)
        heard = []
        for i, node in enumerate(nodes):
            node.on_neighbor_digest(
                lambda digest=(i if i % 2 else None): digest,
                lambda digest, src, node=node:
                heard.append((src, node.address, digest)),
            )
        probes = []
        net.on_deliver = lambda src, dst, wire: (
            wire.kind == "rpc_req" and wire.inner["kind"] == "get_neighbors"
            and probes.append((src, dst, wire)))
        clock.run_for(chord.STABILIZE_PERIOD)
        # Still one probe per node per period.
        assert sorted(p[0] for p in probes) == sorted(n.address for n in nodes)
        for src, _dst, wire in probes:
            silent = int(src[1:]) % 2 == 0
            assert ("digest" in wire.inner) != silent
            if silent:  # not a byte more than a probe without the hook
                bare = {"kind": "get_neighbors", "node": wire.inner["node"]}
                assert wire.wire_size() == 24 + wire_size(bare)
        # Each probed node handed what arrived (None: nothing) upward.
        assert sorted(heard) == sorted(
            (src, dst, wire.inner.get("digest")) for src, dst, wire in probes)


class TestPredecessorLiveness:
    def test_quiet_predecessor_is_pinged_after_a_period_of_silence(self):
        clock, _net, nodes, tap = make_ring(16, seed=2)
        node = nodes[0]
        pred, _ = neighbours(nodes, node)
        pred._stabilizer.stop()  # alive, but no longer probing
        heard = node._predecessor_heard
        t = clock.now
        clock.run_for(3 * chord.CHECK_PREDECESSOR_PERIOD)
        pings = [e for e in tap.since(t, "ping") if e[2] == node.address]
        assert pings and all(e[3] == pred.address for e in pings)
        first = pings[0][0] - LATENCY  # sent one latency before delivery
        assert first - heard >= chord.CHECK_PREDECESSOR_PERIOD
        assert first - heard < 2 * chord.CHECK_PREDECESSOR_PERIOD
        # It answers, so it stays -- and each answer restarts the clock.
        assert node.predecessor == pred.ref
        assert len(pings) <= 3
        assert [e[2] for e in tap.since(t, "ping")] == [node.address] * len(pings)

    @pytest.mark.parametrize("seed", range(8))
    def test_dead_predecessor_is_cleared_within_the_bound(self, seed):
        """Worst case, from the predecessor's last probe to its
        eviction: ``2 * CHECK_PREDECESSOR_PERIOD + rpc_timeout`` -- a
        check that just misses a full period of silence leaves the ping
        to the next one. (The parent pinged every period whatever it
        had heard: ``CHECK_PREDECESSOR_PERIOD + rpc_timeout`` from the
        crash.)"""
        clock, _net, nodes, tap = make_ring(16, seed=seed)
        cfg = nodes[0].config
        node = nodes[seed]
        pred, _ = neighbours(nodes, node)
        pred.crash()
        clock.run_for(2 * LATENCY)  # a probe it sent just before dying
        heard = node._predecessor_heard
        bound = 2 * chord.CHECK_PREDECESSOR_PERIOD + cfg.rpc_timeout
        pinged = None
        while node.predecessor == pred.ref:
            assert clock.now - heard <= bound + 2 * LATENCY + 0.05
            clock.run_for(0.05)
            pings = [e for e in tap.since(heard, "ping") if e[3] == pred.address]
            if pings and pinged is None:
                pinged = pings[0][0] - LATENCY
        # Cleared one rpc_timeout after the ping went out.
        assert pinged is not None
        assert clock.now - pinged == pytest.approx(cfg.rpc_timeout, abs=0.06)
        assert node._is_suspect(pred.address)


@pytest.mark.usefixtures("one_slot_a_round")
class TestFingerRefresh:
    """One slot at a time (``FINGERS_PER_ROUND = 1``), the far slot: its
    start is half the ring away, so nothing answers it locally."""

    SLOT = ID_BITS - 1

    def ring(self, seed=1):
        clock, net, nodes, tap = make_ring(16, seed=seed)
        for n in nodes:
            n._finger_fixer.stop()  # refresh by hand, one slot
        node = nodes[0]
        start = (node.id + (1 << self.SLOT)) % ID_SPACE
        owner = owner_of(nodes, start)
        assert node.fingers[self.SLOT] == owner.ref
        assert node._local_owner(start) is None
        return clock, nodes, tap, node, start, owner

    def refresh(self, clock, node, seconds=3.0):
        node._next_finger = self.SLOT
        t = clock.now
        node._fix_fingers()
        clock.run_for(seconds)
        return t

    def test_owner_says_yes_and_nothing_else_moves(self):
        clock, _nodes, tap, node, _start, owner = self.ring()
        t = self.refresh(clock, node)
        assert tap.counts(t)["owns"] == 1
        assert tap.counts(t)["lookup"] == 0
        assert node.fingers[self.SLOT] == owner.ref

    def test_a_no_falls_back_to_lookup(self):
        clock, nodes, tap, node, _start, owner = self.ring()
        wrong = next(n for n in nodes if n not in (node, owner)
                     and n.ref != node.successor)
        node.fingers[self.SLOT] = wrong.ref
        t = self.refresh(clock, node)
        asked = tap.since(t, "owns")
        assert [(e[2], e[3]) for e in asked] == [(node.address, wrong.address)]
        assert tap.counts(t)["lookup"] >= 1
        assert tap.counts(t)["lookup_done"] == 1
        assert node.fingers[self.SLOT] == owner.ref

    def test_silence_suspects_the_finger_and_falls_back(self):
        clock, nodes, tap, node, start, _owner = self.ring()
        dead = next(n for n in nodes if n is not node
                    and n.ref not in node.successors
                    and n.ref != node.predecessor)
        dead.crash()
        node.fingers[self.SLOT] = dead.ref
        t = self.refresh(clock, node, seconds=0.5)
        assert tap.counts(t)["owns"] == 1
        assert tap.counts(t)["lookup"] == 0  # still waiting
        assert not node._is_suspect(dead.address)
        clock.run_for(node.config.rpc_timeout + 3.0)
        assert node._is_suspect(dead.address)
        assert tap.counts(t)["lookup"] >= 1
        assert node.fingers[self.SLOT] == owner_of(nodes, start).ref

    def test_an_empty_slot_looks_up_at_once(self):
        clock, _nodes, tap, node, _start, owner = self.ring()
        node.fingers[self.SLOT] = None
        t = self.refresh(clock, node)
        assert tap.counts(t)["owns"] == 0
        assert tap.counts(t)["lookup"] >= 1
        assert node.fingers[self.SLOT] == owner.ref

    def test_a_suspected_finger_is_not_asked(self):
        clock, _nodes, tap, node, _start, owner = self.ring()
        node._suspect(owner.address)
        t = self.refresh(clock, node)
        assert tap.counts(t)["owns"] == 0
        assert tap.counts(t)["lookup"] >= 1

    def test_slots_the_successor_covers_cost_nothing(self):
        clock, _nodes, tap, node, _start, _owner = self.ring()
        node._next_finger = 0
        t = clock.now
        for _ in range(8):
            node._fix_fingers()
        clock.run_for(3.0)
        assert tap.since(t, "owns") == [] and tap.since(t, "lookup") == []
        assert node.fingers[:8] == [node.successor] * 8


@pytest.mark.usefixtures("one_slot_a_round")
class TestProximityFinger:
    def test_same_region_choice_survives_a_refresh(self):
        regions = {"m{}".format(i): ("us", "eu")[i % 2] for i in range(24)}
        latency = RegionalLatency(SeededRng(9, "lat"), regions=regions,
                                  jitter_sigma=0.0)
        clock, _net, nodes, tap = make_ring(
            24, seed=9, latency=latency, proximity_routing=True)
        for n in nodes:
            n._finger_fixer.stop()
        # A slot whose entry is a proximity choice, not the owner.
        node, slot, start, owner = next(
            (n, k, (n.id + (1 << k)) % ID_SPACE,
             owner_of(nodes, (n.id + (1 << k)) % ID_SPACE))
            for n in nodes for k in range(ID_BITS - 1, ID_BITS - 8, -1)
            if n.fingers[k] != owner_of(nodes, (n.id + (1 << k)) % ID_SPACE).ref
        )
        chosen = node.fingers[slot]
        assert node._region_of(chosen.address) == node.region
        assert node._region_of(owner.address) != node.region
        node._next_finger = slot
        t = clock.now
        node._fix_fingers()
        clock.run_for(3.0)
        # The choice is not the owner, says so, and the lookup's answer
        # goes back through the same proximity preference.
        assert [(e[2], e[3]) for e in tap.since(t, "owns")] == [
            (node.address, chosen.address)]
        assert tap.counts(t)["lookup_done"] == 1
        assert node.fingers[slot] == chosen
