"""The hop that hands a key over decides (Chord's find_successor contract).

A node that forwards a route to its successor because the key lies
between the two has decided who owns it. The successor does not
second-guess that against its own predecessor pointer, which may still
name a crashed host: the route ends there, and the upcall's
``at_owner`` and the owner cache's answer read the same decision. The
one exception is a live joiner between the two that the sender has not
heard of yet: the route hops back to it, flagged terminal. A flagged
terminal (heir or cached-owner delivery) is never sent back, and
lookups keep the owner check.

Rings are oracle-built over a constant latency; ``Network.on_deliver``
is the tap.
"""

from ring_oracle import owner_of

from repro.core.owners import OwnerCache
from repro.dht import messages as msg
from repro.dht.bootstrap import build_chord_ring
from repro.dht.chord import ChordNode
from repro.dht.config import DhtConfig
from repro.dht.ring import STABILIZE_PERIOD
from repro.sim.clock import SimClock
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from repro.util.ids import in_interval, node_id_for
from repro.util.rng import SeededRng

LATENCY = 0.02


class Ring:
    """An 8-node settled ring; every node logs its deliveries and runs
    an upcall ``tap`` that records ``at_owner`` and lets the message on."""

    def __init__(self, seed=4):
        self.clock = SimClock()
        rng = SeededRng(seed, "handover")
        self.net = Network(self.clock, ConstantLatency(LATENCY), rng.fork("net"))
        self.config = DhtConfig()
        self.rng = rng
        self.nodes = [self.node("h{}".format(i)) for i in range(8)]
        build_chord_ring(self.nodes)
        self.clock.run_for(20.0)
        self.order = sorted(self.nodes, key=lambda n: n.id)
        self.wire = []  # (src, dst, message)
        self.net.on_deliver = lambda src, dst, m: self.wire.append((src, dst, m))

    def node(self, address):
        node = ChordNode(self.net, address, self.config, self.rng.fork(address))
        node.delivered = []
        node.upcalls = []
        node.on_deliver(lambda payload, m, node=node: node.delivered.append(
            (payload, m.force_terminal)))
        node.register_intercept("tap", lambda at, m, at_owner: (
            at.upcalls.append(at_owner) or True))
        return node

    def consecutive(self, count, start=0):
        return [self.order[(start + i) % len(self.order)] for i in range(count)]

    def route(self, origin, key, **payload):
        origin.route(key, dict(payload, mid=origin.fresh_mid()), upcall="tap")
        self.clock.run_for(1.0)

    def routed_to(self, address, since):
        """Routes and hop bundles delivered to ``address``."""
        return [w for w in self.wire[since:] if w[1] == address
                and w[2].kind in ("route", "hop_bundle")]

    def owner_ops(self, src, dst, since):
        return [m.payload["op"] for f, t, m in self.wire[since:]
                if (f, t) == (src, dst) and m.kind == "direct"
                and m.payload["op"].startswith("xowner")]

    def stale_predecessor(self):
        """``(a, x, s)``: x crashed, a already hands x's keys to s, and
        s still names x its predecessor, silent for longer than
        ``STABILIZE_PERIOD + rpc_timeout``."""
        a, x, s = self.consecutive(3)
        s._pred_checker.stop()  # s keeps the stale pointer
        x.crash()
        self.clock.run_for(STABILIZE_PERIOD + 3.0)
        assert a.successor == s.ref and s.predecessor == x.ref
        return a, x, s


def joiner_between(ring, lo, hi):
    """A node, not yet in the ring, whose id lies in ``(lo, hi)``."""
    i = 0
    while not in_interval(node_id_for("j{}".format(i)), lo.id, hi.id):
        i += 1
    return ring.node("j{}".format(i))


class TestHandedRouteEndsAtTheSuccessor:
    def test_a_stale_predecessor_pointer_does_not_send_it_round(self):
        ring = Ring()
        a, x, s = ring.stale_predecessor()
        assert not s.owns(x.id)  # the old rule would route on
        ring.route(a, x.id, op="t")
        assert [p["op"] for p, _forced in s.delivered] == ["t"]
        assert s.upcalls == [True]  # the combiner lands it as owner
        assert [n for n in ring.nodes if n.upcalls] == [s]

    def test_every_part_of_a_bundle_is_handed_over(self):
        ring = Ring()
        a, x, s = ring.stale_predecessor()
        since = len(ring.wire)
        for _ in range(2):
            a.route(x.id, {"op": "t", "mid": a.fresh_mid()}, upcall="tap")
        ring.clock.run_for(1.0)
        first = ring.routed_to(s.address, since)[0][2]
        assert first.kind == "hop_bundle" and len(first.parts) == 2
        assert len(s.delivered) == 2 and s.upcalls == [True, True]

    def test_a_retransmitted_handover_is_still_one(self):
        ring = Ring()
        a, x, s = ring.stale_predecessor()
        send = ring.net.send
        dropped = []

        def lose_the_first_hop(src, dst, payload):
            if (src, dst) == (a.address, s.address) and payload.kind == "route" \
                    and not dropped:
                dropped.append(payload)
                return
            send(src, dst, payload)

        ring.net.send = lose_the_first_hop
        since = len(ring.wire)
        ring.route(a, x.id, op="t")
        assert dropped and [p["op"] for p, _forced in s.delivered] == ["t"]
        hops = [(src, dst) for src, dst, m in ring.wire[since:]
                if m.kind == "route"]
        assert hops == [(a.address, s.address)]  # the retransmit alone

    def test_the_owner_answers_xowner_and_never_stale(self):
        ring = Ring()
        a, x, s = ring.stale_predecessor()
        s.on_deliver(lambda payload, m: OwnerCache(s).answer(payload, m))
        since = len(ring.wire)
        ring.route(a, x.id, ns="n", rid=1, learn=True)
        assert ring.owner_ops(s.address, a.address, since) == ["xowner"]

    def test_a_route_through_hop_is_no_handover(self):
        # A regional tree's first hop goes to an explicit rendezvous,
        # past nodes the sender knows: the rendezvous combines, it
        # does not own the key.
        ring = Ring()
        a, x, s = ring.stale_predecessor()
        a.route_through(s.ref, x.id, {"op": "t", "mid": a.fresh_mid()},
                        upcall="tap")
        ring.clock.run_for(0.0)
        assert s.upcalls == []
        ring.clock.run_for(0.5)
        assert s.upcalls[0] is False


class TestJoinerBetween:
    def test_the_route_hops_back_to_it_flagged_terminal(self):
        ring = Ring()
        a, s = ring.consecutive(2)
        a._stabilizer.stop()  # a has not heard of the joiner
        joiner = joiner_between(ring, a, s)
        joiner.join(s.address)
        ring.clock.run_for(1.0)
        assert a.successor == s.ref and s.predecessor == joiner.ref
        since = len(ring.wire)
        ring.route(a, joiner.id, op="t")
        assert [p["op"] for p, _forced in joiner.delivered] == ["t"]
        assert joiner.delivered[0][1] is True  # flagged terminal
        hops = [(src, dst) for src, dst, m in ring.wire[since:]
                if m.kind == "route"]
        assert hops == [(a.address, s.address), (s.address, joiner.address)]
        assert s.delivered == [] and s.upcalls == []

    def test_a_quiet_predecessor_gets_no_hop_back(self):
        ring = Ring()
        a, x, s = ring.stale_predecessor()
        since = len(ring.wire)
        ring.route(a, x.id, op="t")
        assert ring.routed_to(x.address, since) == []


class TestFlaggedTerminalWins:
    def test_an_heir_delivery_is_not_sent_back(self):
        ring = Ring()
        a, s, heir = ring.consecutive(3)
        s.crash()
        a._suspect(s.address)
        # The heir heard from s a moment ago: a live-looking predecessor
        # that owns the key, yet the flagged delivery stays with it.
        assert heir.predecessor == s.ref and not heir.owns(s.id)
        heir.on_deliver(lambda payload, m: (
            heir.delivered.append((payload, m.force_terminal)),
            OwnerCache(heir).answer(payload, m)))
        since = len(ring.wire)
        ring.route(a, s.id, op="t", ns="n", rid=1, learn=True)
        assert [forced for _p, forced in heir.delivered] == [True]
        assert ring.routed_to(s.address, since) == []
        # An heir is never cached as the owner.
        assert ring.owner_ops(heir.address, a.address, since) == [
            "xowner_stale"]


class TestLookupsKeepTheOwnerCheck:
    def test_a_joining_lookup_is_not_answered_by_a_stale_successor(self):
        ring = Ring()
        a, x, s = ring.stale_predecessor()
        joiner = joiner_between(ring, a, x)
        since = len(ring.wire)
        joiner.join(a.address)
        ring.clock.run_for(0.5)
        from_s = [m for src, dst, m in ring.wire[since:]
                  if src == s.address and m.kind in ("lookup", "lookup_done",
                                                     "hop_bundle")]
        assert from_s and all(
            part.kind == "lookup" for m in from_s for part in msg.parts_of(m))
        # Once s lets the corpse go, the joiner finds its true successor.
        s._pred_checker.start()
        ring.clock.run_for(40.0)
        live = [n for n in ring.nodes if n.alive] + [joiner]
        assert joiner.successor == owner_of(live, joiner.id + 1).ref
