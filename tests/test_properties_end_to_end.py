"""Property-based end-to-end checks: PIER vs a Python oracle.

Hypothesis drives the *data*; the distributed engine must agree with a
straightforward single-process evaluation of the same query. Testbeds
are kept tiny (6 nodes) so each example runs in a few hundred
milliseconds of wall time.
"""

from collections import defaultdict

from hypothesis import HealthCheck, given, settings, strategies as st

from ring_oracle import owner_of

from repro.core.network import PierNetwork
from repro.dht.bootstrap import build_chord_ring
from repro.dht.chord import ChordNode, storage_key
from repro.dht.config import DhtConfig
from repro.sim.clock import SimClock
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from repro.util.rng import SeededRng

slow_settings = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

rows_strategy = st.lists(
    st.tuples(st.integers(0, 4), st.integers(-50, 50)),
    min_size=1, max_size=30,
)


def build_net(rows, seed=1):
    net = PierNetwork(nodes=6, seed=seed)
    net.create_local_table("t", [("g", "INT"), ("v", "INT")])
    for i, row in enumerate(rows):
        net.insert(net.addresses()[i % 6], "t", [row])
    return net


class TestAggregationAgainstOracle:
    @slow_settings
    @given(rows=rows_strategy)
    def test_group_by_sum_count(self, rows):
        net = build_net(rows)
        result = net.run_sql(
            "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g"
        )
        oracle = defaultdict(lambda: [0, 0])
        for g, v in rows:
            oracle[g][0] += v
            oracle[g][1] += 1
        assert sorted(result.rows) == sorted(
            (g, s, n) for g, (s, n) in oracle.items()
        )

    @slow_settings
    @given(rows=rows_strategy)
    def test_min_max(self, rows):
        net = build_net(rows)
        result = net.run_sql("SELECT MIN(v) AS lo, MAX(v) AS hi FROM t")
        values = [v for _g, v in rows]
        assert result.rows == [(min(values), max(values))]

    @slow_settings
    @given(rows=rows_strategy)
    def test_where_filter(self, rows):
        net = build_net(rows)
        result = net.run_sql("SELECT g, v FROM t WHERE v > 0")
        expected = sorted((g, v) for g, v in rows if v > 0)
        assert sorted(result.rows) == expected

    @slow_settings
    @given(rows=rows_strategy, limit=st.integers(1, 5))
    def test_order_limit(self, rows, limit):
        net = build_net(rows)
        result = net.run_sql(
            "SELECT g, v FROM t ORDER BY v DESC LIMIT {}".format(limit)
        )
        expected = sorted(rows, key=lambda r: -r[1])[:limit]
        assert [r[1] for r in result.rows] == [r[1] for r in expected]


class TestJoinAgainstOracle:
    @slow_settings
    @given(
        left=st.lists(st.integers(0, 6), min_size=1, max_size=12),
        right=st.lists(st.integers(0, 6), min_size=1, max_size=12),
    )
    def test_equi_join_cardinality(self, left, right):
        net = PierNetwork(nodes=6, seed=2)
        net.create_local_table("l", [("k", "INT")])
        net.create_local_table("r", [("k", "INT")])
        for i, k in enumerate(left):
            net.insert(net.addresses()[i % 6], "l", [(k,)])
        for i, k in enumerate(right):
            net.insert(net.addresses()[(i + 1) % 6], "r", [(k,)])
        result = net.run_sql("SELECT l.k AS k FROM l, r WHERE l.k = r.k")
        expected = sum(left.count(k) * right.count(k) for k in set(left))
        assert len(result.rows) == expected


class TestRingProperties:
    @slow_settings
    @given(
        n=st.integers(2, 24),
        keys=st.lists(st.integers(), min_size=1, max_size=10),
    )
    def test_exactly_one_owner_per_key(self, n, keys):
        clock = SimClock()
        rng = SeededRng(3, "prop")
        net = Network(clock, ConstantLatency(0.01), rng.fork("net"))
        nodes = [
            ChordNode(net, "p{}".format(i), DhtConfig(), rng.fork(str(i)))
            for i in range(n)
        ]
        build_chord_ring(nodes)
        for key_seed in keys:
            key = storage_key("prop", key_seed)
            owners = [node for node in nodes if node.owns(key)]
            assert len(owners) == 1
            assert owners[0] is owner_of(nodes, key)

    @slow_settings
    @given(n=st.integers(2, 16), key_seed=st.integers())
    def test_lookup_matches_oracle(self, n, key_seed):
        clock = SimClock()
        rng = SeededRng(4, "prop2")
        net = Network(clock, ConstantLatency(0.01), rng.fork("net"))
        nodes = [
            ChordNode(net, "q{}".format(i), DhtConfig(), rng.fork(str(i)))
            for i in range(n)
        ]
        build_chord_ring(nodes)
        key = storage_key("prop2", key_seed)
        out = []
        nodes[0].lookup(key, lambda owner, hops: out.append(owner))
        clock.run_for(5)
        assert out and out[0] is not None
        assert out[0].id == owner_of(nodes, key).id
