"""Hop bundling: the acked hop is the unit that batches.

Routed messages (``Route`` and ``Lookup``) that leave one node for one
next hop at one instant travel as one ``HopBundle`` under one ack and
one guard; a message with nobody to share with travels exactly as it
always did. What is per wire message (latency and loss draw, ack,
guard) is shared; what is per part (size, ``service_time``, upcall,
terminal check, delivery-id dedup, the silence policy) is not.

Rings are oracle-built with maintenance off, so nothing else is on the
wire; ``Network.on_deliver`` is the tap.
"""

import pytest
from test_dht_requests import LosingNetwork

from repro.core.network import PierNetwork
from repro.dht import messages as msg
from repro.dht.bootstrap import build_chord_ring
from repro.dht.chord import ChordNode
from repro.dht.config import DhtConfig
from repro.sim.clock import SimClock
from repro.sim.latency import ConstantLatency
from repro.sim.network import NetworkConfig
from repro.util.ids import sha1_id
from repro.util.rng import SeededRng
from repro.util.serde import wire_size

LATENCY = 0.02
RPC_TIMEOUT = 1.0
HOP_RETRANSMIT = 0.3


def routed_parts(wire):
    """``(kind, force_terminal)`` per routed message in ``wire``."""
    return [(part.kind, part.force_terminal) for part in msg.parts_of(wire)
            if part.kind in ("route", "lookup")]


class Ring:
    """``n`` nodes in ring order. ``tape`` has one ``(time, src, dst,
    message, routed_parts(message))`` per delivered wire message --
    the parts as they were on arrival, later hops rewrite the envelope
    -- and ``rows`` one ``(address, data)`` per exchange row a node
    consumed."""

    def __init__(self, n, service_time=0.0):
        self.clock = SimClock()
        rng = SeededRng(7, "hop-bundle")
        self.net = LosingNetwork(
            self.clock, ConstantLatency(LATENCY), rng.fork("net"),
            NetworkConfig(service_time=service_time))
        cfg = DhtConfig(rpc_timeout=RPC_TIMEOUT,
                        hop_retransmit_timeout=HOP_RETRANSMIT)
        self.nodes = [ChordNode(self.net, "r{}".format(i), cfg,
                                rng.fork(str(i))) for i in range(n)]
        build_chord_ring(self.nodes, start_maintenance=False)
        self.nodes.sort(key=lambda node: node.id)
        self.tape, self.rows = [], []
        self.net.on_deliver = lambda src, dst, p: self.tape.append(
            (round(self.clock.now, 6), src, dst, p, routed_parts(p)))
        for node in self.nodes:
            node.on_deliver(lambda p, m, node=node: self.rows.append(
                (node.address, p["data"])))

    def keys_owned_by(self, node, count):
        keys, i = [], 0
        while len(keys) < count:
            key = sha1_id(("hop-bundle", i))
            i += 1
            if node.owns(key):
                keys.append(key)
        return keys

    def routed(self, src, dst):
        """``(time, kind, parts)`` of every ``Route`` / ``Lookup`` /
        ``HopBundle`` delivered on the ``src -> dst`` edge."""
        return [(when, p.kind, parts) for when, s, d, p, parts in self.tape
                if (s, d) == (src.address, dst.address) and parts]

    def hop_acks(self, src, dst):
        return [when for when, s, d, p, _parts in self.tape
                if (s, d) == (src.address, dst.address)
                and p.kind == "direct" and p.payload.get("op") == "hop_ack"]


def delivery(origin, data):
    return {"op": "deliver", "ns": "x", "mid": origin.fresh_mid(),
            "data": data}


def a_put(rid):
    return {"op": "put", "ns": "t", "rid": rid, "iid": 1, "value": "v",
            "ttl": 60.0}


# ----------------------------------------------------------------------
# (a) one wire message, one ack, one open request
# ----------------------------------------------------------------------
class TestOneWireMessage:
    def test_same_instant_routes_behind_one_finger_share_every_hop(self):
        ring = Ring(8)
        n0, _n1, n2, n3 = ring.nodes[:4]
        keys = ring.keys_owned_by(n3, 5)
        for i, key in enumerate(keys):
            n0.route(key, delivery(n0, i))
        assert not ring.tape and not n0._open_requests  # nothing left yet
        ring.clock.run_for(0.0)  # the zero-delay outbox timer
        assert len(n0._open_requests) == 1  # ONE guard for five messages
        ring.clock.run_for(5.0)
        five = [("route", False)] * 5
        # n0's closest finger before n3's range is n2; n2's successor
        # owns the keys. Each edge carried one message and one ack.
        assert ring.routed(n0, n2) == [(LATENCY, "hop_bundle", five)]
        assert ring.routed(n2, n3) == [(2 * LATENCY, "hop_bundle", five)]
        assert ring.hop_acks(n2, n0) == [2 * LATENCY]
        assert ring.hop_acks(n3, n2) == [3 * LATENCY]
        assert ring.rows == [(n3.address, i) for i in range(5)]
        counters = ring.net.counters
        assert counters.get("messages_sent") == 4
        assert counters.get("messages_kind_hop_bundle") == 2
        assert counters.get("messages_kind_route") == 0
        # Exchange counters still count payloads, hop by hop.
        assert counters.get("exchange_messages") == 10
        assert counters.get("exchange_rows") == 10
        assert not n0._open_requests and not n2._open_requests

    def test_a_bundle_costs_its_parts_in_full_plus_one_header(self):
        ring = Ring(8)
        n0, n3 = ring.nodes[0], ring.nodes[3]
        payloads = [delivery(n0, i) for i in range(3)]
        for key, payload in zip(ring.keys_owned_by(n3, 3), payloads):
            n0.route(key, payload)
        n0.lookup(ring.keys_owned_by(n3, 1)[0], lambda owner, hops: None)
        ring.clock.run_for(0.0)
        lone = sum(20 + 16 + 8 + wire_size(p) for p in payloads) + 44
        assert ring.net.counters.get("bytes_sent") == 16 + 8 + lone
        assert ring.net.counters.get("exchange_bytes") == lone - 44

    def test_a_lookup_rides_with_the_routes_and_is_answered(self):
        ring = Ring(8)
        n0, _n1, n2, n3 = ring.nodes[:4]
        key_a, key_b = ring.keys_owned_by(n3, 2)
        found = []
        n0.route(key_a, delivery(n0, "row"))
        n0.lookup(key_b, lambda owner, hops: found.append((owner, hops)))
        ring.clock.run_for(5.0)
        assert ring.routed(n0, n2) == [
            (LATENCY, "hop_bundle", [("route", False), ("lookup", False)])]
        assert found == [(n3.ref, 2)]
        assert ring.rows == [(n3.address, "row")]

    def test_a_lone_route_is_todays_message(self):
        ring = Ring(8)
        n0, _n1, n2, n3 = ring.nodes[:4]
        payload = delivery(n0, "row")
        n0.route(ring.keys_owned_by(n3, 1)[0], payload)
        ring.clock.run_for(0.0)
        (req,) = n0._open_requests
        ring.clock.run_until(LATENCY)
        when, src, dst, wire, _parts = ring.tape[0]
        assert (when, src, dst) == (LATENCY, n0.address, n2.address)
        assert type(wire) is msg.Route and wire.payload is payload
        ring.clock.run_for(5.0)
        assert ring.routed(n0, n2) == [(LATENCY, "route", [("route", False)])]
        assert ring.routed(n2, n3) == [
            (2 * LATENCY, "route", [("route", False)])]
        assert ring.hop_acks(n2, n0) == [2 * LATENCY]
        ack = next(p for _w, s, _d, p, _parts in ring.tape
                   if s == n2.address and p.kind == "direct")
        assert ack.payload == {"op": "hop_ack", "req": req}
        counters = ring.net.counters
        assert counters.get("messages_kind_hop_bundle") == 0
        assert counters.get("bytes_kind_route") == 2 * (44 + wire_size(payload))
        assert ring.rows == [(n3.address, "row")]

    def test_different_next_hops_do_not_share(self):
        ring = Ring(8)
        n0, n1, n2, n3 = ring.nodes[:4]
        n0.route(ring.keys_owned_by(n1, 1)[0], delivery(n0, "near"))
        n0.route(ring.keys_owned_by(n3, 1)[0], delivery(n0, "far"))
        ring.clock.run_for(5.0)
        assert ring.routed(n0, n1) == [(LATENCY, "route", [("route", False)])]
        assert ring.routed(n0, n2) == [(LATENCY, "route", [("route", False)])]
        assert sorted(ring.rows) == [(n1.address, "near"), (n3.address, "far")]


# ----------------------------------------------------------------------
# (b) silence: a lost bundle is n lost messages
# ----------------------------------------------------------------------
class TestSilence:
    def test_lost_bundle_recovers_part_by_part(self):
        """Deliveries are retransmitted once to the same hop, idempotent
        parts go round it at once -- and the put that suspects the hop
        first does not cost the deliveries filed after it their
        retransmit."""
        ring = Ring(5)
        n0, n1, n2, n3 = ring.nodes[:4]
        keys = ring.keys_owned_by(n3, 4)
        bundles = []

        def lose_first_bundle(src, dst, p):
            if p.kind == "hop_bundle":
                bundles.append((src, dst))
                return len(bundles) == 1
            return False

        ring.net.lose = lose_first_bundle
        found = []
        n0.route(keys[2], a_put("k"))
        n0.route(keys[0], delivery(n0, "A"))
        n0.lookup(keys[3], lambda owner, hops: found.append(owner))
        n0.route(keys[1], delivery(n0, "B"))
        ring.clock.run_for(0.0)
        assert bundles == [(n0.address, n2.address)] and not ring.tape
        ring.clock.run_for(10.0)
        resent = RPC_TIMEOUT + LATENCY
        assert ring.routed(n0, n2) == [
            (resent, "hop_bundle", [("route", False)] * 2)]
        assert ring.routed(n0, n1) == [
            (resent, "hop_bundle", [("route", False), ("lookup", False)])]
        assert sorted(ring.rows) == [(n3.address, "A"), (n3.address, "B")]
        assert [i.value for i in n3.store.get("t", "k")] == ["v"]
        assert found == [n3.ref]
        assert not n0._open_requests

    def test_lost_ack_delivers_no_part_twice(self):
        ring = Ring(3)
        n0, n1, n2 = ring.nodes
        acks = []

        def lose_first_ack(src, dst, p):
            if p.kind == "direct" and p.payload.get("op") == "hop_ack":
                acks.append(src)
                return len(acks) == 1
            return False

        ring.net.lose = lose_first_ack
        for i, key in enumerate(ring.keys_owned_by(n1, 3)):
            n0.route(key, delivery(n0, i))
        ring.clock.run_for(5.0)
        three = [("route", False)] * 3
        assert ring.routed(n0, n1) == [
            (LATENCY, "hop_bundle", three),
            (RPC_TIMEOUT + LATENCY, "hop_bundle", three)]
        assert ring.routed(n0, n2) == []
        # accept_delivery_once, part by part
        assert ring.rows == [(n1.address, i) for i in range(3)]
        assert acks == [n1.address, n1.address]
        assert not n0.is_suspect(n1.address)
        assert not n0._open_requests

    def test_silent_hop_is_suspected_and_every_part_goes_round_it(self):
        ring = Ring(3)
        n0, n1, n2 = ring.nodes
        n1.crash()
        for i, key in enumerate(ring.keys_owned_by(n1, 3)):
            n0.route(key, delivery(n0, i))
        ring.clock.run_until(RPC_TIMEOUT + HOP_RETRANSMIT - 0.01)
        assert not n0.is_suspect(n1.address)
        ring.clock.run_for(0.02)
        assert n0.is_suspect(n1.address)
        ring.clock.run_for(5.0)
        assert [(when, kind) for when, kind, _parts in ring.routed(n0, n1)] == [
            (LATENCY, "hop_bundle"), (RPC_TIMEOUT + LATENCY, "hop_bundle")]
        # n1's range falls to its heir, every part flagged terminal.
        assert ring.routed(n0, n2) == [
            (RPC_TIMEOUT + HOP_RETRANSMIT + LATENCY, "hop_bundle",
             [("route", True)] * 3)]
        assert ring.rows == [(n2.address, i) for i in range(3)]
        assert not n0._open_requests

    def test_silent_cached_owner_sends_every_part_back_to_key_routing(self):
        ring = Ring(3)
        n0, n1, n2 = ring.nodes
        n2.crash()
        for i, key in enumerate(ring.keys_owned_by(n1, 2)):
            n0.route_via(n2.ref, key, delivery(n0, i))
        ring.clock.run_for(5.0)
        assert n0.is_suspect(n2.address)
        two = [("route", True)] * 2
        assert ring.routed(n0, n2) == [
            (LATENCY, "hop_bundle", two),
            (RPC_TIMEOUT + LATENCY, "hop_bundle", two)]
        assert ring.routed(n0, n1) == [
            (RPC_TIMEOUT + HOP_RETRANSMIT + LATENCY, "hop_bundle",
             [("route", False)] * 2)]
        assert ring.rows == [(n1.address, 0), (n1.address, 1)]
        assert not n0._open_requests


# ----------------------------------------------------------------------
# (c) the outbox across crash and leave
# ----------------------------------------------------------------------
class TestOutboxLifecycle:
    @staticmethod
    def _file_three(ring):
        """``(sender, owner)`` with three deliveries in the sender's
        outbox. The sender rejoins through ``nodes[0]`` after a crash,
        so it is not that one."""
        _n0, n1, n2 = ring.nodes
        for i, key in enumerate(ring.keys_owned_by(n2, 3)):
            n1.route(key, delivery(n1, i))
        assert n1._outbox and not ring.tape
        return n1, n2

    def test_crash_drops_the_outbox_for_good(self):
        ring = Ring(3)
        sender, owner = self._file_three(ring)
        sender.crash()
        assert not sender._outbox
        ring.clock.run_for(5.0)
        assert ring.tape == []
        sender.recover()
        ring.clock.run_for(10.0)
        # Rejoining looks the node's own id up through the bootstrap;
        # nothing filed before the crash was sent then or since.
        assert {parts[0][0] for *_m, parts in ring.tape if parts} <= {"lookup"}
        assert ring.rows == []
        # Nobody else runs maintenance here: put the ring back by hand.
        build_chord_ring(ring.nodes, start_maintenance=False)
        sender.route(ring.keys_owned_by(owner, 1)[0], delivery(sender, "new"))
        ring.clock.run_for(5.0)
        assert ring.rows == [(owner.address, "new")]  # the timer re-arms

    def test_graceful_leave_ships_it_first(self):
        ring = Ring(3)
        sender, owner = self._file_three(ring)
        sender.leave()
        assert not sender.alive and not sender._outbox
        ring.clock.run_for(5.0)
        assert ring.routed(sender, owner) == [
            (LATENCY, "hop_bundle", [("route", False)] * 3)]
        assert ring.rows == [(owner.address, i) for i in range(3)]


# ----------------------------------------------------------------------
# (d) tree edge: per-hop combining sees every part
# ----------------------------------------------------------------------
def test_tree_combining_sees_every_part_of_a_bundle():
    """A tree aggregation over 32 nodes, jitter off so that arrival
    times do not depend on how many latency draws a hop took. The
    numbers are the parent commit's (one ``Route`` per partial): the
    same answer from the same number of combiner forwards and the same
    exchange payload hops, in fewer wire messages."""
    net = PierNetwork(nodes=32, seed=31)
    net.latency.jitter_sigma = 0.0
    net.create_local_table("t", [("g", "INT"), ("v", "INT")])
    for i, address in enumerate(net.addresses()):
        net.insert(address, "t", [(j % 6, i + j) for j in range(12)])
    before = dict(net.message_counters())
    result = net.run_sql(
        "SELECT g, SUM(v) AS total, COUNT(*) AS n FROM t GROUP BY g")
    after = net.message_counters()
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    forwards = sum(
        n.engine.tree_forwards
        + sum(c.forwarded for c in n.engine.combiners.values())
        for n in net.nodes.values())
    assert sorted(result.rows) == [
        (0, 1184, 64), (1, 1248, 64), (2, 1312, 64), (3, 1376, 64),
        (4, 1440, 64), (5, 1504, 64)]
    assert forwards == 78
    assert delta["exchange_messages"] == delta["exchange_rows"] == 264
    assert delta["messages_kind_hop_bundle"] > 0
    assert delta["messages_sent"] < 759  # the parent's count


# ----------------------------------------------------------------------
# (e) service time is charged per part
# ----------------------------------------------------------------------
def test_a_bundle_of_n_occupies_the_receiver_n_service_times():
    service = 0.1  # the ack still beats the guard: 4 * 0.1 + 3 * LATENCY
    ring = Ring(3, service_time=service)
    n0, n1, n2 = ring.nodes
    for i, key in enumerate(ring.keys_owned_by(n1, 3)):
        n0.route(key, delivery(n0, i))
    ring.clock.run_for(0.0)  # the bundle is on the wire
    n2.send_direct(n1.address, {"op": "noop"})
    ring.clock.run_for(10.0)
    at_n1 = [(when, p.kind) for when, _s, d, p, _parts in ring.tape
             if d == n1.address]
    assert at_n1 == [
        (pytest.approx(LATENCY + 3 * service), "hop_bundle"),
        (pytest.approx(LATENCY + 4 * service), "direct")]
    assert ring.rows == [(n1.address, i) for i in range(3)]
