"""How a node waits for an answer: ``expect`` / ``settle`` and the
hop ladder (retransmit once to the same hop, then suspect and go round).

The ladder runs once for a walked hop (``route``) and once for a
cache-directed one (``route_via``), on a 3-node ring with maintenance
off so nothing else is on the wire; ``Network.on_deliver`` is the tap.
"""

import pytest

from repro.dht import messages as msg
from repro.dht.bootstrap import build_chord_ring
from repro.dht.chord import ChordNode, storage_key
from repro.dht.config import DhtConfig
from repro.sim.clock import SimClock
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from repro.util.ids import sha1_id
from repro.util.rng import SeededRng

LATENCY = 0.02
RPC_TIMEOUT = 1.0
HOP_RETRANSMIT = 0.3


class LosingNetwork(Network):
    """Loses the messages ``lose(src, dst, payload)`` picks."""

    lose = None

    def send(self, src, dst, payload):
        if self.lose is None or not self.lose(src, dst, payload):
            super().send(src, dst, payload)


def make_ring(n=3):
    """``n`` nodes in ring order, maintenance off, every delivery taped
    as ``(time, src, dst, kind, force_terminal)`` and every consumed
    exchange row as ``(address, data)``."""
    clock = SimClock()
    rng = SeededRng(7, "requests")
    net = LosingNetwork(clock, ConstantLatency(LATENCY), rng.fork("net"))
    cfg = DhtConfig(rpc_timeout=RPC_TIMEOUT,
                    hop_retransmit_timeout=HOP_RETRANSMIT)
    nodes = [ChordNode(net, "r{}".format(i), cfg, rng.fork(str(i)))
             for i in range(n)]
    build_chord_ring(nodes, start_maintenance=False)
    nodes.sort(key=lambda node: node.id)
    tape, rows = [], []
    net.on_deliver = lambda src, dst, p: tape.append(
        (round(clock.now, 6), src, dst, p.kind,
         getattr(p, "force_terminal", None)))
    for node in nodes:
        node.on_deliver(
            lambda p, m, node=node: rows.append((node.address, p["data"])))
    return clock, net, nodes, tape, rows


def routes(tape, dst):
    return [e for e in tape if e[3] == "route" and e[2] == dst.address]


class Outcome:
    def __init__(self):
        self.answers = []
        self.silences = 0

    def on_answer(self, *answer):
        self.answers.append(answer)

    def on_silence(self):
        self.silences += 1


class TestExpectSettle:
    def test_an_answer_in_time_runs_on_answer_only(self):
        clock, _net, (node, *_), _tape, _rows = make_ring()
        out = Outcome()
        req = node.expect(2.0, out.on_answer, out.on_silence)
        clock.run_for(1.0)
        node.settle(req, "owner", 3)
        node.settle(req, "replayed", 9)  # a duplicate reply
        clock.run_for(5.0)
        assert out.answers == [("owner", 3)] and out.silences == 0

    def test_silence_runs_on_silence_only_and_a_late_answer_is_dropped(self):
        clock, _net, (node, *_), _tape, _rows = make_ring()
        out = Outcome()
        req = node.expect(2.0, out.on_answer, out.on_silence)
        clock.run_for(1.99)
        assert out.silences == 0
        clock.run_for(0.02)
        assert out.silences == 1
        node.settle(req, "late")
        clock.run_for(5.0)
        assert out.answers == [] and out.silences == 1

    def test_silence_without_a_callback_just_closes_the_request(self):
        clock, _net, (node, *_), _tape, _rows = make_ring()
        out = Outcome()
        req = node.expect(1.0, out.on_answer)
        clock.run_for(2.0)
        node.settle(req, "late")
        assert out.answers == []

    def test_crash_forgets_every_request_and_ids_are_never_reused(self):
        clock, _net, (node, *_), _tape, _rows = make_ring(1)
        out = Outcome()
        before = [node.expect(2.0, out.on_answer, out.on_silence)
                  for _ in range(5)]
        node.rpc("nowhere", {"kind": "ping"}, out.on_answer, out.on_silence)
        node.crash()
        assert not node._open_requests
        clock.run_for(1.0)
        node.recover()
        after = Outcome()
        fresh = node.expect(2.0, after.on_answer, after.on_silence)
        assert fresh > max(before) + 1  # the rpc took one too
        for req in before:
            node.settle(req, "from before the crash")
        clock.run_for(5.0)
        assert out.answers == [] and out.silences == 0
        assert after.answers == [] and after.silences == 1

    def test_an_id_the_node_never_issued_is_ignored(self):
        clock, _net, (node, peer, _), _tape, _rows = make_ring()
        out = Outcome()
        directs = []
        node.on_direct(lambda inner, src: directs.append(inner))
        req = node.expect(2.0, out.on_answer, out.on_silence)
        for stray in (
            msg.RpcReply(req + 100, {"alive": True}),
            msg.LookupDone(req + 100, peer.ref, 2),
            msg.Direct({"op": "hop_ack", "req": req + 100}),
            msg.Direct({"op": "bcast_ack", "req": req + 100}),
            msg.Direct({"op": "get_reply", "req": req + 100, "values": [1]}),
        ):
            node.handle_message(peer.address, stray)
        assert out.answers == [] and directs == []
        clock.run_for(3.0)
        assert out.silences == 1  # still open until its own guard fired


@pytest.fixture(params=["walked", "route_via"])
def ladder(request):
    """``(clock, net, n0, n1, n2, tape, rows, send)``: ``send(payload)``
    ships a payload keyed at ``n1`` from ``n0`` with ``n1`` as the hop,
    by the ring walk or straight to the cached owner."""
    clock, net, (n0, n1, n2), tape, rows = make_ring()
    key = n1.id
    if request.param == "walked":
        def send(payload):
            n0.route(key, payload)
    else:
        def send(payload):
            n0.route_via(n1.ref, key, payload)
    return clock, net, n0, n1, n2, tape, rows, send


def delivery(n0, data):
    return {"op": "deliver", "ns": "x", "mid": n0.fresh_mid(), "data": data}


class TestHopLadder:
    def test_lost_ack_retransmits_to_the_same_hop_and_dedups(self, ladder):
        clock, net, n0, n1, n2, tape, rows, send = ladder
        acks = []

        def lose_first_ack(src, dst, p):
            if p.kind == "direct" and p.payload.get("op") == "hop_ack":
                acks.append(src)
                return len(acks) == 1
            return False

        net.lose = lose_first_ack
        send(delivery(n0, "row"))
        clock.run_for(5.0)
        assert [e[0] for e in routes(tape, n1)] == [
            LATENCY, RPC_TIMEOUT + LATENCY]
        assert routes(tape, n2) == []
        assert rows == [(n1.address, "row")]  # accept_delivery_once
        assert acks == [n1.address, n1.address]
        assert not n0.is_suspect(n1.address)
        assert not n0._open_requests

    def test_dead_hop_is_suspected_after_both_timeouts(self, ladder):
        clock, _net, n0, n1, n2, tape, rows, send = ladder
        n1.crash()
        send(delivery(n0, "row"))
        clock.run_until(RPC_TIMEOUT + HOP_RETRANSMIT - 0.01)
        assert not n0.is_suspect(n1.address)
        clock.run_for(0.02)
        assert n0.is_suspect(n1.address)
        clock.run_for(5.0)
        assert [e[0] for e in routes(tape, n1)] == [
            LATENCY, RPC_TIMEOUT + LATENCY]
        # n1's range falls to its heir, flagged terminal: n2 does not
        # believe it owns the key yet.
        assert [(e[0], e[4]) for e in routes(tape, n2)] == [
            (RPC_TIMEOUT + HOP_RETRANSMIT + LATENCY, True)]
        assert rows == [(n2.address, "row")]

    def test_idempotent_payload_skips_the_retransmit(self, ladder):
        clock, _net, n0, n1, n2, tape, _rows, send = ladder
        n1.crash()
        send({"op": "put", "ns": "t", "rid": "k", "iid": 1, "value": "v",
              "ttl": 60.0})
        clock.run_until(RPC_TIMEOUT + 0.01)
        assert n0.is_suspect(n1.address)
        clock.run_for(5.0)
        assert len(routes(tape, n1)) == 1
        assert [e[0] for e in routes(tape, n2)] == [RPC_TIMEOUT + LATENCY]
        assert [i.value for i in n2.store.get("t", "k")] == ["v"]

    def test_hop_already_under_suspicion_skips_the_retransmit(self, ladder):
        clock, _net, n0, n1, n2, tape, rows, send = ladder
        n1.crash()
        send(delivery(n0, "row"))
        clock.run_for(0.1)
        n0._suspect(n1.address)  # some other conversation timed out
        clock.run_for(5.0)
        assert len(routes(tape, n1)) == 1
        assert [e[0] for e in routes(tape, n2)] == [RPC_TIMEOUT + LATENCY]
        assert rows == [(n2.address, "row")]


class TestOneEnvelopePerDelivery:
    def test_a_retransmit_while_the_first_copy_walks_is_consumed_once(self):
        """A two-hop walk ``n0 -> hop -> owner``: the hop's ack is lost
        and so is its first send on to the owner, so the first copy is
        still walking (the hop's retransmit is due) when ``n0``
        retransmits. Each holder rewrites only its own envelope: no walk
        reads another's ``handed`` or ``hop_ack``, and the delivery id
        is consumed at the owner alone."""
        clock, net, nodes, _tape, rows = make_ring(6)
        n0, hop, owner = nodes[0], nodes[2], nodes[3]
        key = next(k for k in (sha1_id(("two-walks", i)) for i in range(100))
                   if owner.owns(k))
        acks, sent = [], []

        def lose(src, dst, p):
            if p.kind == "direct" and p.payload.get("op") == "hop_ack":
                acks.append(src)
                return len(acks) == 1
            if p.kind in ("route", "hop_bundle"):
                sent.append((src, dst))
                return len(sent) == 2
            return False

        net.lose = lose
        n0.route(key, delivery(n0, "row"))
        clock.run_for(10.0)
        assert sent[:2] == [(n0.address, hop.address),
                            (hop.address, owner.address)]
        assert acks[0] == hop.address
        assert rows == [(owner.address, "row")]


class TestStaleOwnerCache:
    def test_silent_cached_owner_falls_back_to_the_ring_walk(self):
        """``route_via`` to a dead node that is *not* the key's owner:
        the fallback must clear ``force_terminal`` (else the message
        would terminate right here at the sender) and walk to the true
        owner under a fresh hop ack."""
        clock, _net, (n0, n1, n2), tape, rows = make_ring()
        n2.crash()
        n0.route_via(n2.ref, n1.id, delivery(n0, "row"))
        clock.run_for(5.0)
        assert n0.is_suspect(n2.address)
        assert [(e[0], e[4]) for e in routes(tape, n2)] == [
            (LATENCY, True), (RPC_TIMEOUT + LATENCY, True)]
        assert [(e[0], e[4]) for e in routes(tape, n1)] == [
            (RPC_TIMEOUT + HOP_RETRANSMIT + LATENCY, False)]
        assert rows == [(n1.address, "row")]
        assert not n0._open_requests

    def test_get_answers_with_the_values_or_with_nothing_on_silence(self):
        clock, net, (n0, n1, _n2), _tape, _rows = make_ring()
        rid = next(r for r in range(100) if n1.owns(storage_key("t", r)))
        n0.put("t", rid, 1, "v")
        clock.run_for(1.0)
        got = []
        n0.get("t", rid, lambda values: got.append((clock.now, values)))
        clock.run_for(1.0)
        assert [values for _t, values in got] == [[(1, "v")]]
        net.lose = lambda src, dst, p: (
            p.kind == "direct" and p.payload.get("op") == "get_reply")
        asked = clock.now
        n0.get("t", rid, lambda values: got.append((clock.now, values)),
               timeout=2.0)
        clock.run_for(10.0)
        assert got[1:] == [(asked + 2.0, [])]
