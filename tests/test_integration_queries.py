"""End-to-end one-shot queries over a live simulated testbed."""

import pytest

from repro.core.network import PierNetwork


@pytest.fixture
def net():
    n = PierNetwork(nodes=12, seed=100)
    n.create_local_table("t", [("k", "INT"), ("grp", "STR"), ("v", "FLOAT")])
    rows = [
        (1, "a", 1.0), (2, "a", 2.0), (3, "b", 3.0), (4, "b", 4.0),
        (5, "c", 5.0), (6, "c", 6.0), (7, "a", 7.0), (8, "b", 8.0),
    ]
    for i, row in enumerate(rows):
        n.insert("node{}".format(i % 12), "t", [row])
    return n


class TestSelection:
    def test_filter_and_project(self, net):
        r = net.run_sql("SELECT k, v FROM t WHERE v >= 5 ORDER BY k")
        assert r.rows == [(5, 5.0), (6, 6.0), (7, 7.0), (8, 8.0)]

    def test_arithmetic_in_select(self, net):
        r = net.run_sql("SELECT k, v * 2 AS doubled FROM t WHERE k = 1")
        assert r.rows == [(1, 2.0)]

    def test_string_predicate(self, net):
        r = net.run_sql("SELECT k FROM t WHERE grp = 'c' ORDER BY k")
        assert r.rows == [(5,), (6,)]

    def test_empty_result(self, net):
        r = net.run_sql("SELECT k FROM t WHERE v > 1000")
        assert r.rows == []

    def test_columns_named(self, net):
        r = net.run_sql("SELECT k AS key, v AS value FROM t WHERE k = 1")
        assert r.columns == ["key", "value"]
        assert r.dicts() == [{"key": 1, "value": 1.0}]

    def test_or_predicate(self, net):
        r = net.run_sql("SELECT k FROM t WHERE k = 1 OR k = 8 ORDER BY k")
        assert r.rows == [(1,), (8,)]

    def test_scalar_function(self, net):
        r = net.run_sql("SELECT UPPER(grp) AS g FROM t WHERE k = 1")
        assert r.rows == [("A",)]


class TestAggregation:
    def test_global_sum_count(self, net):
        r = net.run_sql("SELECT SUM(v) AS s, COUNT(*) AS n FROM t")
        assert r.rows == [(36.0, 8)]

    def test_min_max_avg(self, net):
        r = net.run_sql("SELECT MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS mean FROM t")
        assert r.rows == [(1.0, 8.0, 4.5)]

    def test_group_by(self, net):
        r = net.run_sql(
            "SELECT grp, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY grp ORDER BY grp"
        )
        assert r.rows == [("a", 10.0, 3), ("b", 15.0, 3), ("c", 11.0, 2)]

    def test_group_by_with_where(self, net):
        r = net.run_sql(
            "SELECT grp, COUNT(*) AS n FROM t WHERE v >= 3 GROUP BY grp ORDER BY grp"
        )
        assert r.rows == [("a", 1), ("b", 3), ("c", 2)]

    def test_having(self, net):
        r = net.run_sql(
            "SELECT grp, SUM(v) AS s FROM t GROUP BY grp HAVING s > 10 ORDER BY s DESC"
        )
        assert r.rows == [("b", 15.0), ("c", 11.0)]

    def test_order_by_aggregate_limit(self, net):
        r = net.run_sql(
            "SELECT grp, SUM(v) AS s FROM t GROUP BY grp ORDER BY s DESC LIMIT 1"
        )
        assert r.rows == [("b", 15.0)]

    def test_aggregate_of_expression(self, net):
        r = net.run_sql("SELECT SUM(v * 10) AS s FROM t")
        assert r.rows == [(360.0,)]

    def test_aggregate_empty_input(self, net):
        r = net.run_sql("SELECT SUM(v) AS s, COUNT(*) AS n FROM t WHERE k > 99")
        # No node had matching rows; nothing reports (responding-node
        # semantics) so the result set is empty rather than (NULL, 0).
        assert r.rows == []


class TestJoins:
    @pytest.fixture
    def join_net(self):
        n = PierNetwork(nodes=12, seed=101)
        n.create_local_table("orders", [("oid", "INT"), ("cust", "INT"), ("amt", "FLOAT")])
        n.create_local_table("custs", [("cid", "INT"), ("name", "STR")])
        orders = [(1, 10, 5.0), (2, 11, 7.0), (3, 10, 2.0), (4, 12, 9.0)]
        custs = [(10, "ada"), (11, "bob"), (13, "eve")]
        for i, row in enumerate(orders):
            n.insert("node{}".format(i), "orders", [row])
        for i, row in enumerate(custs):
            n.insert("node{}".format(i + 6), "custs", [row])
        return n

    def test_shj_inner_join(self, join_net):
        r = join_net.run_sql(
            "SELECT o.oid AS oid, c.name AS name FROM orders AS o, custs AS c "
            "WHERE o.cust = c.cid ORDER BY oid"
        )
        assert r.rows == [(1, "ada"), (2, "bob"), (3, "ada")]

    def test_join_with_extra_predicate(self, join_net):
        r = join_net.run_sql(
            "SELECT o.oid AS oid FROM orders AS o, custs AS c "
            "WHERE o.cust = c.cid AND o.amt > 4 ORDER BY oid"
        )
        assert r.rows == [(1,), (2,)]

    def test_join_then_group(self, join_net):
        r = join_net.run_sql(
            "SELECT c.name AS name, SUM(o.amt) AS total FROM orders AS o, custs AS c "
            "WHERE o.cust = c.cid GROUP BY c.name ORDER BY total DESC"
        )
        assert r.rows == [("ada", 7.0), ("bob", 7.0)] or \
            r.rows == [("bob", 7.0), ("ada", 7.0)]

    def test_bloom_strategy_same_answer(self, join_net):
        r = join_net.run_sql(
            "SELECT o.oid AS oid, c.name AS name FROM orders AS o, custs AS c "
            "WHERE o.cust = c.cid ORDER BY oid",
            options={"join_strategy": "bloom"},
        )
        assert r.rows == [(1, "ada"), (2, "bob"), (3, "ada")]

    def test_self_join(self, join_net):
        r = join_net.run_sql(
            "SELECT a.oid AS x, b.oid AS y FROM orders AS a, orders AS b "
            "WHERE a.cust = b.cust AND a.oid < b.oid"
        )
        assert sorted(r.rows) == [(1, 3)]


class TestDhtTables:
    def test_publish_scan(self, net):
        net.create_dht_table("pub", [("pk", "STR"), ("val", "INT")],
                             partition_key="pk", ttl=600)
        for i in range(10):
            net.publish("node{}".format(i % 12), "pub", ("key{}".format(i), i))
        net.advance(3)
        r = net.run_sql("SELECT pk, val FROM pub ORDER BY val")
        assert len(r.rows) == 10
        assert r.rows[0] == ("key0", 0)

    def test_fm_join_against_dht_table(self, net):
        net.create_dht_table("dim", [("id", "INT"), ("label", "STR")],
                             partition_key="id", ttl=600)
        for pair in [(1, "one"), (2, "two"), (3, "three")]:
            net.publish("node0", "dim", pair)
        net.advance(3)
        r = net.run_sql(
            "SELECT t.k AS k, d.label AS label FROM t, dim AS d "
            "WHERE t.k = d.id ORDER BY k"
        )
        assert r.rows == [(1, "one"), (2, "two"), (3, "three")]

    def test_fm_join_keeps_the_inner_filter(self, net):
        net.create_dht_table("dim", [("id", "INT"), ("label", "STR")],
                             partition_key="id", ttl=600)
        for pair in [(1, "one"), (2, "two"), (3, "three")]:
            net.publish("node0", "dim", pair)
        net.advance(3)
        sql = ("SELECT t.k AS k, d.label AS label FROM t, dim AS d "
               "WHERE t.k = d.id AND d.label <> 'two' ORDER BY k")
        fm = net.run_sql(sql)
        shj = net.run_sql(sql, options={"join_strategy": "shj"})
        assert fm.rows == shj.rows == [(1, "one"), (3, "three")]

    def test_dht_rows_expire(self, net):
        net.create_dht_table("ephemeral", [("pk", "STR"), ("v", "INT")],
                             partition_key="pk", ttl=5.0)
        net.publish("node0", "ephemeral", ("k", 1))
        net.advance(30)
        r = net.run_sql("SELECT pk, v FROM ephemeral")
        assert r.rows == []


class TestQueryMisc:
    def test_run_from_any_node_same_answer(self, net):
        a = net.run_sql("SELECT SUM(v) AS s FROM t", node="node3")
        b = net.run_sql("SELECT SUM(v) AS s FROM t", node="node9")
        assert a.rows == b.rows

    def test_reporters_recorded(self, net):
        r = net.run_sql("SELECT k, v FROM t WHERE v >= 1")
        # All 8 data-holding nodes contribute rows directly.
        assert len(r.reporters) == 8

    def test_compile_sql_exposes_plan(self, net):
        plan = net.compile_sql("SELECT SUM(v) AS s FROM t")
        assert plan.mode == "oneshot"
        assert "groupby_final" in {s.kind for s in plan.specs.values()}

    def test_continuous_via_run_sql_rejected(self, net):
        from repro.util.errors import PierError

        net.create_stream_table("s1", [("v", "FLOAT")], window=10)
        with pytest.raises(PierError):
            net.run_sql("SELECT SUM(v) AS s FROM s1 EVERY 5 SECONDS")
