"""Advanced integration: multi-way joins, COUNT DISTINCT, loss, facade."""

import pytest

from repro.core.network import PierConfig, PierNetwork
from repro.sim.network import NetworkConfig
from repro.util.errors import PierError


class TestThreeWayJoin:
    @pytest.fixture
    def net(self):
        n = PierNetwork(nodes=12, seed=700)
        n.create_local_table("a", [("x", "INT"), ("la", "STR")])
        n.create_local_table("b", [("x", "INT"), ("y", "INT")])
        n.create_local_table("c", [("y", "INT"), ("lc", "STR")])
        n.insert("node0", "a", [(1, "a1"), (2, "a2")])
        n.insert("node1", "b", [(1, 10), (2, 20), (3, 30)])
        n.insert("node2", "c", [(10, "c10"), (20, "c20")])
        return n

    def test_left_deep_chain(self, net):
        r = net.run_sql(
            "SELECT a.la AS la, c.lc AS lc FROM a, b, c "
            "WHERE a.x = b.x AND b.y = c.y ORDER BY la"
        )
        assert r.rows == [("a1", "c10"), ("a2", "c20")]

    def test_three_way_with_filter(self, net):
        r = net.run_sql(
            "SELECT a.la AS la FROM a, b, c "
            "WHERE a.x = b.x AND b.y = c.y AND c.lc = 'c20'"
        )
        assert r.rows == [("a2",)]

    def test_three_way_aggregate(self, net):
        r = net.run_sql(
            "SELECT COUNT(*) AS n FROM a, b, c WHERE a.x = b.x AND b.y = c.y"
        )
        assert r.rows == [(2,)]


class TestCountDistinct:
    @pytest.fixture
    def net(self):
        n = PierNetwork(nodes=10, seed=701)
        n.create_local_table("ev", [("user", "STR"), ("page", "STR")])
        rows = [("u1", "home"), ("u1", "home"), ("u2", "home"),
                ("u2", "about"), ("u3", "about"), ("u1", "about")]
        for i, row in enumerate(rows):
            n.insert("node{}".format(i % 10), "ev", [row])
        return n

    def test_global_count_distinct(self, net):
        r = net.run_sql("SELECT COUNT(DISTINCT user) AS users FROM ev")
        assert r.rows == [(3,)]

    def test_grouped_count_distinct(self, net):
        r = net.run_sql(
            "SELECT page, COUNT(DISTINCT user) AS users FROM ev "
            "GROUP BY page ORDER BY page"
        )
        assert r.rows == [("about", 3), ("home", 2)]

    def test_mixed_with_plain_count(self, net):
        r = net.run_sql(
            "SELECT COUNT(DISTINCT user) AS users, COUNT(*) AS events FROM ev"
        )
        assert r.rows == [(3, 6)]

    def test_distinct_outside_count_rejected(self, net):
        from repro.util.errors import SqlError

        with pytest.raises(SqlError):
            net.compile_sql("SELECT SUM(DISTINCT user) AS s FROM ev")


class TestEmptyAggregate:
    def test_global_count_over_no_match_answers_no_row(self):
        # Responding-nodes semantics: a node with no matching row sends
        # no partial, so nobody responds and the answer is empty -- not
        # a synthesized (0,) row.
        net = PierNetwork(nodes=6, seed=704)
        net.create_local_table("t", [("v", "INT")])
        for i, address in enumerate(net.addresses()):
            net.insert(address, "t", [(i,)])
        assert net.run_sql("SELECT COUNT(*) AS n FROM t").rows == [(6,)]
        result = net.run_sql("SELECT COUNT(*) AS n FROM t WHERE v > 100")
        assert result.rows == []


class TestMessageLoss:
    def test_queries_complete_under_loss(self):
        # 2% message loss: hop acks re-forward, rows mostly arrive.
        net = PierNetwork(nodes=10, seed=702, config=PierConfig(
            network=NetworkConfig(loss_rate=0.02)))
        net.create_local_table("t", [("v", "INT")])
        for i, address in enumerate(net.addresses()):
            net.insert(address, "t", [(i,)])
        result = net.run_sql("SELECT COUNT(*) AS n FROM t")
        assert result.rows
        assert result.rows[0][0] >= 8  # allow a straggler or two

    def test_loss_counter_populated(self):
        net = PierNetwork(nodes=8, seed=703, config=PierConfig(
            network=NetworkConfig(loss_rate=0.05)))
        net.advance(60)
        assert net.message_counters().get("messages_lost", 0) > 0


class TestFacade:
    def test_unknown_node_rejected(self, small_net):
        with pytest.raises(PierError):
            small_net.node("ghost")

    def test_bad_bootstrap_mode_rejected(self):
        with pytest.raises(PierError):
            PierConfig(bootstrap="teleport")

    def test_protocol_bootstrap_builds_working_net(self):
        net = PierNetwork(nodes=6, seed=704,
                          config=PierConfig(bootstrap="protocol"))
        net.create_local_table("t", [("v", "INT")])
        for i, address in enumerate(net.addresses()):
            net.insert(address, "t", [(i,)])
        result = net.run_sql("SELECT SUM(v) AS s FROM t")
        assert result.rows == [(15,)]

    def test_reset_counters(self, small_net):
        small_net.advance(30)
        small_net.reset_counters()
        assert small_net.message_counters() == {}

    def test_live_addresses_follow_crashes(self, small_net):
        victim = small_net.addresses()[2]
        small_net.crash_node(victim)
        assert victim not in small_net.live_addresses()
        small_net.recover_node(victim)
        assert victim in small_net.live_addresses()

    def test_deterministic_given_seed(self):
        def run():
            net = PierNetwork(nodes=8, seed=99)
            net.create_local_table("t", [("v", "FLOAT")])
            for i, address in enumerate(net.addresses()):
                net.insert(address, "t", [(float(i),)])
            result = net.run_sql("SELECT SUM(v) AS s FROM t")
            return (result.rows,
                    net.message_counters().get("messages_sent"))

        assert run() == run()

    def test_run_plan_roundtrip(self, small_net):
        small_net.create_local_table("t", [("v", "INT")])
        small_net.insert(small_net.any_address(), "t", [(5,)])
        plan = small_net.compile_sql("SELECT v FROM t")
        result = small_net.run_plan(plan)
        assert result.rows == [(5,)]


class TestExchangePartitioning:
    def test_rehash_spreads_groups_across_owners(self):
        # Many groups should not all land on one node.
        net = PierNetwork(nodes=16, seed=705)
        net.create_local_table("t", [("g", "INT"), ("v", "INT")])
        for i in range(64):
            net.insert(net.addresses()[i % 16], "t", [(i, 1)])
        result = net.run_sql("SELECT g, SUM(v) AS s FROM t GROUP BY g")
        assert len(result.rows) == 64
        # reporters = distinct group-owner nodes that sent results.
        assert len(result.reporters) >= 8

    def test_same_key_same_owner_across_sides(self):
        # The join correctness guarantee: verified end-to-end by any
        # join, asserted here with adversarial duplicate keys.
        net = PierNetwork(nodes=12, seed=706)
        net.create_local_table("l", [("k", "INT")])
        net.create_local_table("r", [("k", "INT")])
        for i in range(12):
            net.insert(net.addresses()[i], "l", [(7,)])
            net.insert(net.addresses()[(i + 3) % 12], "r", [(7,)])
        result = net.run_sql(
            "SELECT l.k AS k FROM l, r WHERE l.k = r.k"
        )
        assert len(result.rows) == 144  # 12 x 12 pairs, none lost
