"""Distributed panes: pane-tagged exchanges end to end.

Coverage layers:

* planner marking: panes live on the group-by chain only (grouped
  aggregation, probe-side fetch-matches joins below it); top-k, Bloom
  joins, SHJ joins, plain projections and non-overlapping windows keep
  from-scratch evaluation;
* integration: grouped tree aggregation and fetch-matches joins answer
  identically to the from-scratch ablation while folding fewer
  partial-state rows at group owners, and a sliding Bloom join answers
  every epoch with the join of the appended rows;
* mechanics: pane-tagged batches never mix panes, the tree combiner
  holds per-(epoch, pane) partials, and a paned final assembles older
  still-open epochs statelessly (refinement reflush after the window
  advanced).
"""

import pytest
from stubs import make_engine, make_exchange

from benchmarks.perf.reference import RowLog, same_rows
from repro.core.batch import RowBatch
from repro.core.network import PierNetwork

GROUPED_SQL = (
    "SELECT bucket, SUM(v) AS total, COUNT(*) AS n FROM s GROUP BY bucket "
    "EVERY 10 SECONDS WINDOW 40 SECONDS LIFETIME 60 SECONDS"
)


def make_net(nodes=8, seed=77, columns=(("bucket", "INT"), ("v", "FLOAT")),
             window=60.0):
    net = PierNetwork(nodes=nodes, seed=seed)
    net.create_stream_table("s", list(columns), window=window)
    return net


def install_ticker(net, address, row_fn, period=2.0, table="s", log=None):
    def tick():
        engine = net.node(address).engine
        row = row_fn(engine)
        engine.stream_append(table, row)
        if log is not None:
            log.add(engine.clock.now, address, table, [row])
        engine.set_timer(period, tick)

    net.node(address).engine.set_timer(0.1, tick)


def bucketed_tickers(net):
    for i, address in enumerate(net.addresses()):
        install_ticker(
            net, address,
            lambda engine, i=i: (int(engine.clock.now // 10), float(i + 1)),
        )


def check_sliding_bloom_join(every, window, nodes, seed):
    """Run a Bloom join of two sliding streams for four epochs and check
    every epoch's answer against the join on ``k`` of the rows appended
    in ``(hi - window, hi]``."""
    sql = ("SELECT l.k AS k, l.v AS lv, r.v AS rv FROM lt l, rt r "
           "WHERE l.k = r.k EVERY {} SECONDS WINDOW {} SECONDS "
           "LIFETIME {} SECONDS").format(every, window, 4 * every)
    net = PierNetwork(nodes=nodes, seed=seed)
    net.create_stream_table("lt", [("k", "INT"), ("v", "INT")],
                            window=float(window + every))
    net.create_stream_table("rt", [("k", "INT"), ("v", "INT")],
                            window=float(window + every))
    log = RowLog()
    for i, address in enumerate(net.addresses()):
        def row_fn(engine, i=i):
            return ((i * 7 + int(engine.clock.now)) % 16, i)

        install_ticker(net, address, row_fn, table="lt", log=log)
        if i % 2 == 0:
            def rrow_fn(engine, i=i):
                return ((i * 5 + int(engine.clock.now)) % 16, 100 + i)

            install_ticker(net, address, rrow_fn, table="rt", log=log)
    net.advance(window + 2.0)
    results = []
    handle = net.submit_sql(sql, on_epoch=results.append,
                            options={"join_strategy": "bloom"})
    assert handle.plan.pane is None
    assert handle.plan.ops_of_kind("bloom_stage")
    net.advance(4 * every + handle.plan.deadline + 5.0)
    answers = {r.epoch: r.rows for r in results}
    assert sorted(answers) == [1, 2, 3, 4]
    for k, rows in answers.items():
        hi = handle.t0 + k * every
        right = log.window("rt", hi - window, hi)
        want = [(lk, lv, rv) for lk, lv in log.window("lt", hi - window, hi)
                for rk, rv in right if lk == rk]
        assert want and same_rows(rows, want), "epoch {}".format(k)


class TestPlannerMarking:
    def test_grouped_aggregation_goes_distributed(self):
        net = make_net(nodes=4)
        plan = net.compile_sql(GROUPED_SQL)
        assert plan.standing and plan.pane is not None
        partial = plan.ops_of_kind("groupby_partial")[0]
        exchange = plan.ops_of_kind("exchange")[0]
        final = plan.ops_of_kind("groupby_final")[0]
        assert partial.params["paned"] == plan.pane
        assert exchange.params["paned"] == plan.pane
        assert exchange.params["combine"]["paned"] is True
        assert final.params["paned"] == plan.pane

    def test_rehash_aggregation_ships_deltas_too(self):
        net = make_net(nodes=4)
        plan = net.compile_sql(GROUPED_SQL,
                               options={"aggregation_tree": False})
        partial = plan.ops_of_kind("groupby_partial")[0]
        exchange = plan.ops_of_kind("exchange")[0]
        assert partial.params["paned"] == plan.pane
        assert exchange.params["mode"] == "rehash"
        assert exchange.params["paned"] == plan.pane
        assert "combine" not in exchange.params

    def test_fetch_matches_chain_is_pane_transparent(self):
        net = make_net(nodes=4, columns=(("rule", "INT"), ("v", "FLOAT")))
        net.create_dht_table(
            "rules", [("rule_id", "INT"), ("sev", "STR")],
            partition_key="rule_id",
        )
        plan = net.compile_sql(
            "SELECT d.sev, COUNT(*) AS n FROM s, rules d "
            "WHERE s.rule = d.rule_id GROUP BY d.sev "
            "EVERY 10 SECONDS WINDOW 40 SECONDS LIFETIME 60 SECONDS"
        )
        # The paned partial sits above the join, so panes cross it.
        assert plan.ops_of_kind("fetch_matches")
        assert plan.pane is not None
        assert (plan.ops_of_kind("groupby_partial")[0]
                .params["paned"] == plan.pane)

    def test_shj_join_keeps_from_scratch(self):
        net = make_net(nodes=4, columns=(("k", "INT"), ("v", "FLOAT")))
        net.create_stream_table("t", [("k", "INT"), ("w", "FLOAT")],
                                window=60.0)
        plan = net.compile_sql(
            "SELECT s.k AS k, COUNT(*) AS n FROM s, t "
            "WHERE s.k = t.k GROUP BY s.k "
            "EVERY 10 SECONDS WINDOW 40 SECONDS LIFETIME 60 SECONDS"
        )
        # Both stream scans feed exchanges below the join: no pane path.
        assert plan.pane is None

    def test_non_overlapping_window_stays_unpaned(self):
        net = make_net(nodes=4)
        plan = net.compile_sql(
            "SELECT bucket, COUNT(*) AS n FROM s GROUP BY bucket "
            "EVERY 10 SECONDS WINDOW 10 SECONDS LIFETIME 60 SECONDS"
        )
        assert plan.pane is None


def run_grouped(options, seed=77, nodes=8, advance=110.0):
    net = make_net(nodes=nodes, seed=seed)
    bucketed_tickers(net)
    results = []
    handle = net.submit_sql(GROUPED_SQL, on_epoch=results.append,
                            options=options)
    net.advance(advance)
    return net, handle, {
        r.epoch: sorted((g, round(t, 6), n) for g, t, n in r.rows)
        for r in results
    }


class TestDistributedParity:
    def test_grouped_tree_aggregation_matches_scratch(self):
        outcomes = {}
        merged = {}
        for label, options in (("dist", None),
                               ("scratch", {"paned": False})):
            net, handle, epochs = run_grouped(options)
            outcomes[label] = epochs
            merged[label] = sum(
                n.engine.rows_merged for n in net.nodes.values()
            )
        assert len(outcomes["scratch"]) >= 5
        assert outcomes["dist"] == outcomes["scratch"]
        # The distributed path ships each pane's increment once: at 4x
        # overlap the owners fold >= 2x fewer state rows than the
        # scratch path (which re-ships every group's full window state
        # each epoch).
        assert 2 * merged["dist"] <= merged["scratch"]

    def test_rehash_mode_distributed_parity(self):
        base = {"aggregation_tree": False}
        _net, _h, dist = run_grouped(dict(base))
        _net, _h, scratch = run_grouped(dict(base, paned=False))
        assert dist == scratch and len(dist) >= 5

    def test_overlapping_epoch_ring_with_distributed_panes(self):
        # 6s period with tree flush ~8.7s: two live epochs AND pane
        # shipping, the hardest combination (an older epoch's final
        # flush runs after the newer epoch advanced the pane window).
        sql = ("SELECT bucket, SUM(v) AS total, COUNT(*) AS n FROM s "
               "GROUP BY bucket EVERY 6 SECONDS WINDOW 18 SECONDS "
               "LIFETIME 48 SECONDS")
        outcomes = []
        for options in (None, {"paned": False}):
            net = make_net(nodes=8, seed=31)
            for i, address in enumerate(net.addresses()):
                install_ticker(
                    net, address,
                    lambda engine, i=i: (int(engine.clock.now // 6),
                                         float(i + 1)),
                )
            results = []
            handle = net.submit_sql(sql, on_epoch=results.append,
                                    options=options)
            if options is None:
                assert handle.plan.epoch_overlap == 2
                assert handle.plan.pane is not None
                final = handle.plan.ops_of_kind("groupby_final")[0]
                assert final.params["paned"] == handle.plan.pane
            net.advance(80.0)
            outcomes.append({
                r.epoch: sorted((g, round(t, 6), n) for g, t, n in r.rows)
                for r in results
            })
        assert outcomes[0] == outcomes[1]
        assert len(outcomes[0]) >= 5

    def test_fetch_matches_join_parity(self):
        def build():
            net = make_net(nodes=8, seed=11,
                           columns=(("rule", "INT"), ("v", "FLOAT")),
                           window=40.0)
            net.create_dht_table(
                "rules", [("rule_id", "INT"), ("sev", "STR")],
                partition_key="rule_id", ttl=600.0,
            )
            for r in range(5):
                net.publish(net.addresses()[r % 8], "rules",
                            (r, "sev{}".format(r % 2)), keep_alive=True)
            for i, address in enumerate(net.addresses()):
                install_ticker(
                    net, address,
                    lambda engine, i=i: ((i + int(engine.clock.now)) % 5,
                                         float(i + 1)),
                )
            net.advance(32.0)
            return net

        sql = ("SELECT d.sev, COUNT(*) AS hits, SUM(s.v) AS vol "
               "FROM s, rules d WHERE s.rule = d.rule_id GROUP BY d.sev "
               "EVERY 8 SECONDS WINDOW 32 SECONDS LIFETIME 40 SECONDS")
        outcomes = {}
        folded = {}
        for label, options in (("paned", None), ("scratch",
                                                 {"paned": False})):
            net = build()
            results = []
            handle = net.submit_sql(sql, on_epoch=results.append,
                                    options=options)
            net.advance(40 + handle.plan.deadline + 5.0)
            outcomes[label] = {r.epoch: sorted(r.rows) for r in results}
            folded[label] = sum(
                n.engine.rows_aggregated for n in net.nodes.values()
            )
        shared = set(outcomes["paned"]) & set(outcomes["scratch"])
        assert len(shared) >= 4
        for k in shared:
            assert outcomes["paned"][k] == outcomes["scratch"][k]
        assert 2 * folded["paned"] <= folded["scratch"]

    def test_sliding_bloom_join_matches_appended_rows(self):
        check_sliding_bloom_join(every=8, window=24, nodes=6, seed=3)

    # A tumbling window, a window that is not a multiple of EVERY, and
    # a larger fleet all rebuild each epoch's filters from the window.
    @pytest.mark.parametrize("every,window,nodes,seed", [
        (10, 10, 6, 4),
        (6, 15, 5, 11),
        (8, 32, 9, 23),
    ], ids=["tumbling", "ragged_window", "nine_nodes"])
    def test_sliding_bloom_join_geometries(self, every, window, nodes, seed):
        check_sliding_bloom_join(every=every, window=window, nodes=nodes,
                                 seed=seed)

    def test_sketch_aggregate_rides_distributed_panes(self):
        net = make_net(nodes=6, seed=5, columns=(("src", "STR"),),
                       window=40.0)
        for i, address in enumerate(net.addresses()):
            install_ticker(
                net, address,
                lambda engine, i=i: (
                    "src-{}-{}".format(i, int(engine.clock.now) % 12),),
                period=1.0,
            )
        results = []
        handle = net.submit_sql(
            "SELECT APPROX_COUNT_DISTINCT(src) AS d FROM s "
            "EVERY 8 SECONDS WINDOW 32 SECONDS LIFETIME 32 SECONDS",
            on_epoch=results.append,
        )
        assert handle.plan.pane is not None
        net.advance(75.0)
        settled = [r for r in results if r.epoch >= 4]
        assert settled
        # 6 tickers x 12 rotating sources, window >> rotation: the true
        # distinct count is 72 once the window fills.
        for r in settled:
            assert r.rows and abs(r.rows[0][0] - 72) <= 0.1 * 72


class TestPaneMechanics:
    def test_exchange_batches_never_mix_panes(self):
        engine = make_engine()
        exchange = make_exchange(
            engine, key={"kind": "group"},
            paned={"width": 1.0, "every": 1, "window": 4})
        exchange.push_batch(RowBatch(rows=[(("g",), (1,))], pane=7))
        exchange.push_batch(RowBatch(rows=[(("g",), (2,))], pane=7))
        exchange.push_batch(RowBatch(rows=[(("g",), (3,))], pane=8))
        exchange.flush()
        by_pane = {}
        from repro.core.exchange import payload_rows

        for _key, payload in engine.dht.routed:
            rows = payload_rows(payload)
            by_pane.setdefault(payload["pane"], []).extend(rows)
            assert payload["epoch"] == 3
        assert set(by_pane) == {7, 8}
        assert len(by_pane[7]) == 2 and len(by_pane[8]) == 1

    def test_combiner_holds_per_epoch_and_pane(self):
        from repro.core.aggregates import AggSpec
        from repro.core.aggregation_tree import TreeCombiner
        from repro.db.expressions import col
        from repro.db.schema import Schema
        from repro.db.types import FLOAT

        schema = Schema.of(("v", FLOAT))
        specs = [AggSpec("SUM", col("v"), "total")]
        engine = make_engine()
        combiner = TreeCombiner(
            engine.dht, "ns", "route", "up", specs, 0.5,
            engine.owners, paned=True)

        class Node:
            def accept_delivery_once(self, mid):
                return True

        class Msg:
            def __init__(self, pane, value):
                self.payload = {"op": "deliver", "ns": "ns",
                                "rid": ("g",), "epoch": 2, "pane": pane,
                                "data": (("g",), (value,))}

        for pane, value in ((5, 1.0), (5, 2.0), (6, 10.0)):
            assert combiner.handler(Node(), Msg(pane, value), False) is False
        combiner._forward()
        routed = [payload for _key, payload in engine.dht.routed]
        held = {p["pane"]: p["data"][1][0] for p in routed}
        assert held == {5: 3.0, 6: 10.0}
        assert all(p["epoch"] == 2 for p in routed)

    def test_late_pane_increment_refiled_not_dropped(self):
        # Pane increments are ship-once delta state: a straggler tagged
        # with an already-sealed epoch must land in the pane store (via
        # the oldest open epoch) rather than being dropped at the door,
        # or every remaining window covering the pane under-counts.
        net = make_net(nodes=6, seed=77)
        bucketed_tickers(net)
        handle = net.submit_sql(GROUPED_SQL)
        net.advance(35.0)  # a few boundaries: epochs sealed behind us
        execution = next(
            n.engine.queries[handle.qid].execution
            for n in net.nodes.values()
            if handle.qid in n.engine.queries
            and n.engine.queries[handle.qid].execution is not None
        )
        final_id = next(s.op_id for s in
                        handle.plan.ops_of_kind("groupby_final"))
        final = execution.ops[final_id]
        sealed = min(execution._open_epochs) - 1
        assert sealed >= 0
        current = execution.ctx.epoch
        pane = current - 1  # panes_per_every == 1: still in the window
        before = dict(final._window._panes.get(pane, {}))
        execution.deliver_batch(
            final_id, 0, [((999,), (5.0, 1))], epoch=sealed, pane=pane
        )
        after = final._window._panes.get(pane, {})
        assert (999,) in after and after != before
        # An untagged late row still drops (its epoch state is gone).
        execution.deliver_batch(final_id, 0, [((998,), (5.0, 1))],
                                epoch=sealed)
        assert (998,) not in final._window._panes.get(pane, {})
        handle.stop()

    def test_pane_window_serves_older_epoch_statelessly(self):
        from repro.core.aggregates import AggSpec
        from repro.core.operators.groupby import PaneWindow
        from repro.db.expressions import col

        specs = [AggSpec("SUM", col("v"), "total")]
        window = PaneWindow(specs, retain_panes=1)
        for pane, value in ((0, 1.0), (1, 2.0), (2, 4.0), (3, 8.0)):
            states = window.entry(pane, ("g",))
            states[0] = specs[0].agg.add_many(states[0], [value])
        # Epoch k: window [1, 4); then the older epoch k-1 re-assembles
        # [0, 3) -- its panes must still exist, and the newest window
        # must read the same afterwards.
        newest = dict(window.assemble(1, 4))
        assert newest[("g",)] == (14.0,)
        older = dict(window.assemble(0, 3))
        assert older[("g",)] == (7.0,)
        assert dict(window.assemble(1, 4))[("g",)] == (14.0,)


@pytest.mark.parametrize("sql,options", [
    ("SELECT v FROM s ORDER BY v DESC LIMIT 3 EVERY 10 SECONDS "
     "WINDOW 40 SECONDS LIFETIME 40 SECONDS", None),
    ("SELECT v FROM s EVERY 10 SECONDS WINDOW 40 SECONDS "
     "LIFETIME 40 SECONDS", None),
    ("SELECT s.v AS v, t.w AS w FROM s, t WHERE s.v = t.w "
     "EVERY 10 SECONDS WINDOW 40 SECONDS LIFETIME 60 SECONDS",
     {"join_strategy": "bloom"}),
    ("SELECT v FROM s WHERE v > 1.0 ORDER BY v ASC LIMIT 2 "
     "EVERY 10 SECONDS WINDOW 40 SECONDS LIFETIME 40 SECONDS", None),
    ("SELECT v FROM s LIMIT 2 EVERY 10 SECONDS WINDOW 40 SECONDS "
     "LIFETIME 40 SECONDS", None),
    ("SELECT s.v AS v, t.w AS w FROM s, t WHERE s.v = t.w "
     "EVERY 10 SECONDS WINDOW 40 SECONDS LIFETIME 60 SECONDS",
     {"join_strategy": "shj"}),
], ids=["topk", "projection", "bloom_join", "filtered_topk", "limit_only",
        "shj_join"])
def test_plans_without_an_aggregate_stay_unpaned(sql, options):
    net = PierNetwork(nodes=4, seed=1)
    net.create_stream_table("s", [("v", "FLOAT")], window=60.0)
    net.create_stream_table("t", [("w", "FLOAT")], window=60.0)
    plan = net.compile_sql(sql, options=options)
    assert plan.standing and plan.pane is None
    assert not any(op.params.get("paned") for op in plan.specs.values())


# The group-by chain is the one pane path: the scan, the pane-tagged
# exchange and both group-by halves carry the same geometry, whatever
# filter sits below the aggregate or sort sits above it.
@pytest.mark.parametrize("sql", [
    "SELECT COUNT(*) AS n FROM s EVERY 10 SECONDS WINDOW 40 SECONDS "
    "LIFETIME 40 SECONDS",
    "SELECT bucket, SUM(v) AS t FROM s WHERE v > 2.0 GROUP BY bucket "
    "EVERY 10 SECONDS WINDOW 40 SECONDS LIFETIME 40 SECONDS",
    "SELECT bucket, SUM(v) AS t FROM s GROUP BY bucket ORDER BY t DESC "
    "LIMIT 2 EVERY 10 SECONDS WINDOW 40 SECONDS LIFETIME 40 SECONDS",
], ids=["ungrouped_count", "filtered_group_by", "sorted_group_by"])
def test_group_by_chain_is_the_pane_path(sql):
    net = make_net(nodes=4)
    plan = net.compile_sql(sql)
    assert plan.pane == {"width": 10.0, "every": 1, "window": 4}
    marked = [op for op in plan.specs.values() if op.params.get("paned")]
    assert sorted(op.kind for op in marked) == [
        "exchange", "groupby_final", "groupby_partial", "scan"]
    assert all(op.params["paned"] == plan.pane for op in marked)
