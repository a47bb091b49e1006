"""Chord overlay: ring correctness, routing, storage, failure handling."""

from repro.dht.bootstrap import (
    build_chord_ring,
    join_chord_ring,
    owner_of,
    ring_is_consistent,
)
from repro.dht import messages as msg
from repro.dht.chord import ChordNode, storage_key
from repro.dht.config import DhtConfig
from repro.dht.ring import DELIVERY_DEDUP_TTL, STORAGE_SWEEP_PERIOD
from repro.sim.clock import SimClock
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from repro.util.ids import ID_BITS
from repro.util.rng import SeededRng


def make_ring(n, seed=0, clock=None, settle=10.0):
    clock = clock if clock is not None else SimClock()
    rng = SeededRng(seed, "chordtest")
    net = Network(clock, ConstantLatency(0.02), rng.fork("net"))
    cfg = DhtConfig()
    nodes = [
        ChordNode(net, "n{}".format(i), cfg, rng.fork("c{}".format(i)))
        for i in range(n)
    ]
    build_chord_ring(nodes)
    clock.run_for(settle)
    return clock, net, nodes


class TestRingConstruction:
    def test_oracle_ring_is_consistent(self):
        _clock, _net, nodes = make_ring(32)
        assert ring_is_consistent(nodes)

    def test_single_node_ring(self):
        clock, _net, nodes = make_ring(1)
        assert nodes[0].successor == nodes[0].ref
        found = []
        nodes[0].lookup(storage_key("x", 1), lambda o, h: found.append(o))
        clock.run_for(1)
        assert found == [nodes[0].ref]

    def test_two_node_ring(self):
        clock, _net, nodes = make_ring(2)
        assert nodes[0].successor == nodes[1].ref or nodes[1].successor == nodes[0].ref
        assert ring_is_consistent(nodes)

    def test_protocol_join_converges(self):
        clock = SimClock()
        rng = SeededRng(1, "join")
        net = Network(clock, ConstantLatency(0.02), rng.fork("net"))
        cfg = DhtConfig()
        nodes = [
            ChordNode(net, "j{}".format(i), cfg, rng.fork("j{}".format(i)))
            for i in range(10)
        ]
        join_chord_ring(nodes, clock)
        clock.run_for(60)
        assert ring_is_consistent(nodes)

    def test_predecessors_set(self):
        _clock, _net, nodes = make_ring(16)
        for node in nodes:
            assert node.predecessor is not None


class TestOwnership:
    def test_lookup_agrees_with_oracle(self):
        clock, _net, nodes = make_ring(24)
        answers = {}
        for i in range(40):
            key = storage_key("tbl", i)
            nodes[i % 24].lookup(
                key, lambda o, h, key=key: answers.__setitem__(key, o)
            )
        clock.run_for(10)
        assert len(answers) == 40
        for i in range(40):
            key = storage_key("tbl", i)
            assert answers[key].id == owner_of(nodes, key).id

    def test_owns_partitions_the_ring(self):
        _clock, _net, nodes = make_ring(16)
        for i in range(30):
            key = storage_key("p", i)
            owners = [n for n in nodes if n.owns(key)]
            assert len(owners) == 1

    def test_lookup_hops_logarithmic(self):
        clock, _net, nodes = make_ring(64)
        hops = []
        for i in range(60):
            nodes[i % 64].lookup(storage_key("h", i), lambda o, h: hops.append(h))
        clock.run_for(20)
        assert len(hops) == 60
        # Expected ~log2(64)/2 = 3; cap generously.
        assert sum(hops) / len(hops) < 7


class TestStorage:
    def test_put_get_roundtrip(self):
        clock, _net, nodes = make_ring(16)
        nodes[3].put("t", "key", 1, {"x": 1})
        clock.run_for(2)
        out = []
        nodes[11].get("t", "key", out.append)
        clock.run_for(3)
        assert out == [[(1, {"x": 1})]]

    def test_get_missing_returns_empty(self):
        clock, _net, nodes = make_ring(8)
        out = []
        nodes[0].get("t", "missing", out.append)
        clock.run_for(6)
        assert out == [[]]

    def test_item_stored_at_ring_owner(self):
        clock, _net, nodes = make_ring(16)
        nodes[0].put("t", "k9", 1, "v")
        clock.run_for(2)
        owner = owner_of(nodes, storage_key("t", "k9"))
        assert len(owner.store.get("t", "k9")) == 1

    def test_soft_state_expires(self):
        clock, _net, nodes = make_ring(8)
        nodes[0].put("t", "k", 1, "v", ttl=5)
        clock.run_for(2)
        out = []
        nodes[1].get("t", "k", out.append)
        clock.run_for(2)
        assert out[0] != []
        clock.run_for(10)
        out2 = []
        nodes[1].get("t", "k", out2.append)
        clock.run_for(3)
        assert out2 == [[]]

    def test_renew_keeps_alive(self):
        clock, _net, nodes = make_ring(8)
        nodes[0].put("t", "k", 1, "v", ttl=6)
        clock.run_for(4)
        nodes[0].renew("t", "k", 1, ttl=20)
        clock.run_for(8)
        out = []
        nodes[1].get("t", "k", out.append)
        clock.run_for(3)
        assert out[0] == [(1, "v")]

    def test_lscan_sees_local_fragment_only(self):
        clock, _net, nodes = make_ring(16)
        for i in range(50):
            nodes[i % 16].put("frag", "key{}".format(i), 1, i)
        clock.run_for(3)
        total = sum(len(n.lscan("frag")) for n in nodes)
        assert total == 50

    def test_keys_handed_off_on_join(self):
        clock = SimClock()
        rng = SeededRng(9, "handoff")
        net = Network(clock, ConstantLatency(0.02), rng.fork("net"))
        cfg = DhtConfig()
        nodes = [
            ChordNode(net, "h{}".format(i), cfg, rng.fork("h{}".format(i)))
            for i in range(6)
        ]
        build_chord_ring(nodes[:5])
        clock.run_for(5)
        for i in range(40):
            nodes[0].put("t", "k{}".format(i), 1, i, ttl=300)
        clock.run_for(3)
        # Sixth node joins via the protocol; keys it now owns must move.
        nodes[5].join(nodes[0].address)
        clock.run_for(40)
        out = []
        for i in range(40):
            nodes[2].get("t", "k{}".format(i), lambda v, i=i: out.append((i, v)))
        clock.run_for(8)
        found = sum(1 for _i, v in out if v)
        assert found == 40


class TestFailures:
    def test_successor_failover(self):
        clock, _net, nodes = make_ring(16)
        victim = nodes[4]
        victim.crash()
        clock.run_for(40)
        assert ring_is_consistent(nodes)

    def test_lookups_survive_failures(self):
        clock, _net, nodes = make_ring(32)
        for i in (3, 9, 20):
            nodes[i].crash()
        results = []
        for i in range(30):
            src = nodes[(i * 7) % 32]
            if src.alive:
                src.lookup(storage_key("f", i), lambda o, h: results.append(o))
        clock.run_for(20)
        assert all(o is not None for o in results)
        assert len(results) >= 25

    def test_crash_clears_store(self):
        clock, _net, nodes = make_ring(8)
        nodes[0].put("t", "k", 1, "v")
        clock.run_for(2)
        owner = owner_of(nodes, storage_key("t", "k"))
        owner.crash()
        assert len(owner.store) == 0

    def test_recover_rejoins_ring(self):
        clock, _net, nodes = make_ring(16)
        nodes[7].crash()
        clock.run_for(30)
        nodes[7].recover(nodes[0].address)
        clock.run_for(60)
        assert ring_is_consistent(nodes)

    def test_leave_hands_off_keys(self):
        clock, _net, nodes = make_ring(8)
        for i in range(20):
            nodes[0].put("t", "k{}".format(i), 1, i, ttl=600)
        clock.run_for(3)
        total_before = sum(len(n.store) for n in nodes)
        leaver = nodes[3]
        leaver.leave()
        clock.run_for(1)
        total_after = sum(len(n.store) for n in nodes if n.alive)
        assert total_after == total_before

    def test_leave_hands_the_predecessor_the_whole_successor_list(self):
        # The leaver's own successor took its keys: the predecessor must
        # not skip it on the way to the rest of the list.
        clock, _net, nodes = make_ring(8)
        leaver = nodes[3]
        pred = next(n for n in nodes if n.ref == leaver.predecessor)
        handed = list(leaver.successors)
        leaver.leave()
        clock.run_for(0.1)
        assert pred.successors == handed


class TestBroadcast:
    def test_reaches_every_node_once(self):
        clock, _net, nodes = make_ring(32)
        got = []
        for node in nodes:
            node.on_broadcast(
                lambda payload, origin, depth, node=node: got.append(node.address)
            )
        nodes[5].broadcast({"token": "b1"})
        clock.run_for(5)
        assert sorted(got) == sorted(n.address for n in nodes)
        assert len(got) == len(set(got))

    def test_depth_logarithmic(self):
        clock, _net, nodes = make_ring(64)
        depths = []
        for node in nodes:
            node.on_broadcast(lambda p, o, depth: depths.append(depth))
        nodes[0].broadcast({"token": "b2"})
        clock.run_for(5)
        assert max(depths) <= 2 * (ID_BITS.bit_length() + 7)  # loose; see next
        assert max(depths) <= 12  # log2(64)=6 plus repair slack

    def test_repair_covers_failed_fingers(self):
        clock, _net, nodes = make_ring(48)
        for i in (1, 13, 25, 37):
            nodes[i].crash()
        got = set()
        for node in nodes:
            if node.alive:
                node.on_broadcast(
                    lambda p, o, d, node=node: got.add(node.address)
                )
        nodes[0].broadcast({"token": "b3"})
        clock.run_for(20)
        assert len(got) == 44

    def test_duplicate_tokens_suppressed(self):
        clock, _net, nodes = make_ring(8)
        count = [0]
        nodes[3].on_broadcast(lambda p, o, d: count.__setitem__(0, count[0] + 1))
        nodes[0].broadcast({"token": "same"})
        clock.run_for(3)
        nodes[0].broadcast({"token": "same"})
        clock.run_for(3)
        assert count[0] == 1

    def test_replay_inside_the_ttl_is_dropped_and_not_relayed(self):
        clock, net, nodes = make_ring(16)
        heard = []
        nodes[3].on_broadcast(lambda p, o, d: heard.append(p))
        nodes[0].broadcast({"token": "once"})
        clock.run_for(DELIVERY_DEDUP_TTL - 5)
        relayed = []
        net.on_deliver = lambda src, dst, p: (
            p.kind == "broadcast" and relayed.append((src, dst)))
        # A child re-send: same token, the whole ring as its range.
        nodes[3].handle_message(nodes[0].address, msg.Broadcast(
            {"token": "once"}, nodes[3].id, nodes[0].ref, 1))
        clock.run_for(2)
        assert len(heard) == 1
        assert relayed == []

    def test_seen_tokens_are_soft_state(self):
        clock, _net, nodes = make_ring(16)
        for i in range(50):
            nodes[i % 16].broadcast({"token": "t{}".format(i)})
        clock.run_for(3)
        assert all(len(n._seen_broadcasts) == 50 for n in nodes)
        clock.run_for(DELIVERY_DEDUP_TTL + STORAGE_SWEEP_PERIOD)
        assert all(not n._seen_broadcasts for n in nodes)


class TestUpcalls:
    def test_intercept_can_absorb_and_forward(self):
        clock, _net, nodes = make_ring(16)
        target_key = storage_key("u", "k")
        absorbed = []

        def intercept(node, message, at_owner):
            if at_owner:
                return True
            absorbed.append(node.address)
            message.payload["data"] += 1
            return True  # transformed, keep going

        delivered = []
        for node in nodes:
            node.register_intercept("bump", intercept)
            node.on_deliver(lambda p, m: delivered.append(p["data"]))
        origin = nodes[0] if not nodes[0].terminates(target_key) else nodes[1]
        origin.route(target_key, {"op": "deliver", "ns": "u", "data": 0},
                     upcall="bump")
        clock.run_for(5)
        assert len(delivered) == 1
        assert delivered[0] == len(absorbed)

    def test_direct_messages(self):
        clock, _net, nodes = make_ring(4)
        seen = []
        nodes[2].on_direct(lambda payload, src: seen.append((payload, src)))
        nodes[0].send_direct(nodes[2].address, {"hello": True})
        clock.run_for(1)
        assert seen == [({"hello": True}, nodes[0].address)]
