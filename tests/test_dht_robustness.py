"""Routing robustness: suspects, heir delivery, no loops, split-brain."""

from repro.core.network import PierNetwork
from repro.dht.bootstrap import build_chord_ring, owner_of
from repro.dht.chord import ChordNode, storage_key
from repro.dht.ring import SUSPECT_TTL
from repro.dht.config import DhtConfig
from repro.sim.clock import SimClock
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from repro.util.rng import SeededRng


def make_ring(n, seed=0):
    clock = SimClock()
    rng = SeededRng(seed, "robust")
    net = Network(clock, ConstantLatency(0.02), rng.fork("net"))
    cfg = DhtConfig()
    nodes = [
        ChordNode(net, "n{}".format(i), cfg, rng.fork("c{}".format(i)))
        for i in range(n)
    ]
    build_chord_ring(nodes)
    clock.run_for(3)
    return clock, net, nodes


class TestSuspicion:
    def test_hop_ack_timeout_marks_suspect(self):
        clock, _net, nodes = make_ring(16, seed=1)
        key = storage_key("s", "k")
        owner = owner_of(nodes, key)
        # Find a node whose direct next hop would be the owner.
        sender = next(n for n in nodes if n.successor == owner.ref)
        owner.crash()
        sender.route(key, {"op": "put", "ns": "s", "rid": "k",
                           "iid": 1, "value": 1, "ttl": 60})
        clock.run_for(5)
        assert sender.is_suspect(owner.address)

    def test_hearing_from_node_absolves(self):
        clock, _net, nodes = make_ring(8, seed=2)
        a, b = nodes[0], nodes[1]
        a._suspect(b.address)
        assert a.is_suspect(b.address)
        b.send_direct(a.address, {"op": "noop"})
        clock.run_for(1)
        assert not a.is_suspect(b.address)

    def test_suspicion_expires(self):
        clock, _net, nodes = make_ring(8, seed=3)
        a, b = nodes[0], nodes[1]
        a._suspect(b.address)
        clock.run_for(SUSPECT_TTL + 1)
        assert not a.is_suspect(b.address)


class TestHeirDelivery:
    def test_put_lands_at_successor_of_dead_owner(self):
        clock, _net, nodes = make_ring(16, seed=4)
        key = storage_key("t", "hot")
        owner = owner_of(nodes, key)
        live = sorted((n for n in nodes if n is not owner), key=lambda n: n.id)
        owner.crash()
        # Immediately put: no stabilization has run yet.
        src = live[0]
        src.put("t", "hot", 1, "v", ttl=600)
        clock.run_for(6)
        heir = owner_of(nodes, key)  # ground truth among live nodes
        stored = [n for n in nodes if n.alive and n.store.get("t", "hot")]
        assert stored, "row was dropped"
        # The row should sit at (or very near) the rightful heir.
        assert heir in stored or len(stored) == 1

    def test_get_resolves_during_ownership_gap(self):
        clock, _net, nodes = make_ring(16, seed=5)
        nodes[0].put("t", "k", 1, 42, ttl=600)
        clock.run_for(2)
        key = storage_key("t", "k")
        owner = owner_of(nodes, key)
        owner.crash()
        # The data died with the owner (no keep-alive); a get must still
        # terminate promptly with an empty answer, not hang or loop.
        out = []
        src = next(n for n in nodes if n.alive)
        src.get("t", "k", out.append)
        clock.run_for(8)
        assert out == [[]]

    def test_no_routing_loops_during_gap(self):
        clock, net, nodes = make_ring(20, seed=6)
        for victim in nodes[3:7]:
            victim.crash()
        before = net.counters.get("messages_sent")
        live = [n for n in nodes if n.alive]
        for i, src in enumerate(live):
            src.route(storage_key("x", i), {
                "op": "put", "ns": "x", "rid": i, "iid": 1,
                "value": i, "ttl": 60,
            })
        clock.run_for(10)
        sent = net.counters.get("messages_sent") - before
        # 16 routed puts, even around 4 corpses, must stay bounded --
        # a lap-the-ring loop would cost hundreds per message.
        assert sent < 16 * 40

    def test_lookup_terminates_with_all_candidates_dead(self):
        clock, _net, nodes = make_ring(6, seed=7)
        # Kill everyone except one node.
        for victim in nodes[1:]:
            victim.crash()
        survivor = nodes[0]
        out = []
        survivor.lookup(storage_key("y", 1), lambda o, h: out.append(o))
        clock.run_for(15)
        assert len(out) == 1  # resolved (to itself) or failed; no hang


class TestSplitBrainReconciliation:
    def test_global_aggregate_single_row_under_mid_query_crash(self):
        net = PierNetwork(nodes=16, seed=8)
        net.create_local_table("t", [("v", "INT")])
        for i, address in enumerate(net.addresses()):
            net.insert(address, "t", [(1,)])
        handle = net.submit_sql("SELECT COUNT(*) AS n FROM t",
                                node=net.addresses()[0])
        # Crash two nodes while partials are in flight.
        net.advance(2.5)
        for address in net.addresses()[7:9]:
            net.crash_node(address)
        net.advance(handle.plan.deadline + 3)
        result = handle.result(0)
        assert result is not None
        # Exactly one output row even if two acting owners reported.
        assert len(result.rows) == 1
        assert result.rows[0][0] >= 10

    def test_grouped_aggregate_groups_not_duplicated(self):
        net = PierNetwork(nodes=16, seed=9)
        net.create_local_table("t", [("g", "STR"), ("v", "INT")])
        for i, address in enumerate(net.addresses()):
            net.insert(address, "t", [("g{}".format(i % 3), 1)])
        handle = net.submit_sql(
            "SELECT g, COUNT(*) AS n FROM t GROUP BY g",
            node=net.addresses()[0],
        )
        net.advance(2.5)
        net.crash_node(net.addresses()[11])
        net.advance(handle.plan.deadline + 3)
        result = handle.result(0)
        groups = [row[0] for row in result.rows]
        assert len(groups) == len(set(groups))  # no split-brain duplicates


class TestStreamingRefinement:
    def test_late_partials_still_counted(self):
        # The scenario that motivated refinement: kill a slice of the
        # ring and query immediately; stragglers delayed by dead-hop
        # discovery must still reach the final answer.
        net = PierNetwork(nodes=20, seed=800)
        net.create_local_table("t", [("v", "INT")])
        for i, address in enumerate(net.addresses()):
            net.insert(address, "t", [(1,)])
        for address in net.addresses()[::4]:
            if address != net.addresses()[1]:
                net.crash_node(address)
        live = len(net.live_addresses())
        result = net.run_sql("SELECT COUNT(*) AS n FROM t",
                             node=net.addresses()[1])
        assert len(result.rows) == 1
        assert result.rows[0][0] >= live - 1
