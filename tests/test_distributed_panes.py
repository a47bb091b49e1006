"""Distributed panes: pane-tagged exchanges end to end.

Coverage layers:

* planner marking: which shapes go distributed (grouped aggregation,
  fetch-matches joins, bloom legs), which stay node-local (top-k), and
  which keep from-scratch evaluation (SHJ joins, non-overlapping
  windows);
* integration parity: grouped tree aggregation, fetch-matches joins
  and bloom joins answer identically to the from-scratch ablation
  while folding fewer partial-state rows at group owners;
* mechanics: pane-tagged batches never mix panes, the tree combiner
  holds per-(epoch, pane) partials, and a paned final assembles older
  still-open epochs statelessly (refinement reflush after the window
  advanced).
"""

import pytest
from stubs import make_engine, make_exchange

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


def install_ticker(net, address, row_fn, period=2.0, table="s"):
    def tick():
        engine = net.node(address).engine
        engine.stream_append(table, row_fn(engine))
        engine.set_timer(period, tick)

    net.node(address).engine.set_timer(0.1, tick)


def bucketed_tickers(net):
    for i, address in enumerate(net.addresses()):
        install_ticker(
            net, address,
            lambda engine, i=i: (int(engine.clock.now // 10), float(i + 1)),
        )


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
        assert plan.pane is not None
        fm = plan.ops_of_kind("fetch_matches")[0]
        assert fm.params["paned"] == plan.pane
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

    def test_bloom_legs_marked_paned(self):
        net = make_net(nodes=4, columns=(("k", "INT"), ("v", "FLOAT")))
        net.create_stream_table("t", [("k", "INT"), ("w", "FLOAT")],
                                window=60.0)
        plan = net.compile_sql(
            "SELECT s.k AS k, t.w AS w FROM s, t WHERE s.k = t.k "
            "EVERY 10 SECONDS WINDOW 40 SECONDS LIFETIME 60 SECONDS",
            options={"join_strategy": "bloom"},
        )
        stages = plan.ops_of_kind("bloom_stage")
        assert len(stages) == 2
        assert all(stage.params.get("paned") for stage in stages)

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

    def test_bloom_stage_paned_parity(self):
        sql = ("SELECT l.k AS k, l.v AS lv, r.v AS rv FROM lt l, rt r "
               "WHERE l.k = r.k EVERY 8 SECONDS WINDOW 24 SECONDS "
               "LIFETIME 32 SECONDS")

        def build():
            net = PierNetwork(nodes=6, seed=3)
            net.create_stream_table("lt", [("k", "INT"), ("v", "INT")],
                                    window=32.0)
            net.create_stream_table("rt", [("k", "INT"), ("v", "INT")],
                                    window=32.0)
            for i, address in enumerate(net.addresses()):
                def row_fn(engine, i=i):
                    return ((i * 7 + int(engine.clock.now)) % 16, i)

                install_ticker(net, address, row_fn, table="lt")
                if i % 2 == 0:
                    def rrow_fn(engine, i=i):
                        return ((i * 5 + int(engine.clock.now)) % 16,
                                100 + i)

                    install_ticker(net, address, rrow_fn, table="rt")
            net.advance(26.0)
            return net

        outcomes = {}
        scanned = {}
        for label, paned in (("paned", True), ("scratch", False)):
            net = build()
            options = {"join_strategy": "bloom"}
            if not paned:
                options["paned"] = False
            results = []
            handle = net.submit_sql(sql, on_epoch=results.append,
                                    options=options)
            if paned:
                assert all(s.params.get("paned") for s in
                           handle.plan.ops_of_kind("bloom_stage"))
            net.advance(32 + handle.plan.deadline + 5.0)
            outcomes[label] = {r.epoch: sorted(r.rows) for r in results}
            scanned[label] = sum(
                n.engine.rows_scanned for n in net.nodes.values()
            )
        shared = set(outcomes["paned"]) & set(outcomes["scratch"])
        assert len(shared) >= 3
        for k in shared:
            assert outcomes["paned"][k] == outcomes["scratch"][k]
        assert scanned["paned"] < scanned["scratch"]

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
        exchange.open_pane(7)
        exchange.push((("g",), (1,)))
        exchange.push((("g",), (2,)))
        exchange.open_pane(8)
        exchange.push((("g",), (3,)))
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
        sealed = execution._sealed_through
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
            states[0] = specs[0].agg.add(states[0], value)
        # Epoch k: window [1, 4); then the older epoch k-1 re-assembles
        # [0, 3) -- its panes must still exist and the newest running
        # window must stay pinned.
        newest = dict(window.assemble(1, 4))
        assert newest[("g",)] == (14.0,)
        older = dict(window.assemble(0, 3))
        assert older[("g",)] == (7.0,)
        assert dict(window.assemble(1, 4))[("g",)] == (14.0,)


@pytest.mark.parametrize("sql,expect_pane", [
    ("SELECT v FROM s ORDER BY v DESC LIMIT 3 EVERY 10 SECONDS "
     "WINDOW 40 SECONDS LIFETIME 40 SECONDS", True),
    ("SELECT v FROM s EVERY 10 SECONDS WINDOW 40 SECONDS "
     "LIFETIME 40 SECONDS", False),
])
def test_topk_still_marks_but_projection_does_not(sql, expect_pane):
    net = PierNetwork(nodes=4, seed=1)
    net.create_stream_table("s", [("v", "FLOAT")], window=60.0)
    plan = net.compile_sql(sql)
    assert (plan.pane is not None) == expect_pane
