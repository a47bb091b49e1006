"""Planner: plan shapes, strategy selection, timing, and errors."""

import pytest

from repro.core.planner import REHASH_XFER, SCAN_READY, plan_query
from repro.core.sql import parse_query
from repro.db.catalog import Catalog, TableDef
from repro.db.schema import Schema
from repro.db.types import FLOAT, INT, STR
from repro.util.errors import PlanError


@pytest.fixture
def catalog():
    c = Catalog()
    c.define(TableDef("t", Schema.of(("a", INT), ("b", INT), ("s", STR))))
    c.define(TableDef("u", Schema.of(("x", INT), ("y", STR))))
    c.define(TableDef("d", Schema.of(("k", INT), ("v", STR)),
                      source="dht", partition_key="k"))
    c.define(TableDef("stream", Schema.of(("v", FLOAT)),
                      source="stream", window=60.0))
    c.define(TableDef("link", Schema.of(("src", STR), ("dst", STR)),
                      source="dht", partition_key="src"))
    return c


def plan(catalog, sql, options=None):
    return plan_query(parse_query(sql, options), catalog)


def kinds(p):
    return sorted(s.kind for s in p.specs.values())


class TestSimplePlans:
    def test_select_project_result(self, catalog):
        p = plan(catalog, "SELECT a FROM t WHERE b > 1")
        assert kinds(p) == ["project", "result", "scan", "select"]
        assert p.mode == "oneshot"

    def test_no_where_no_select_op(self, catalog):
        p = plan(catalog, "SELECT a FROM t")
        assert "select" not in kinds(p)

    def test_result_is_root_with_flush(self, catalog):
        p = plan(catalog, "SELECT a FROM t")
        assert p.specs[p.root_id].kind == "result"
        assert p.root_id in p.flush_offsets

    def test_order_limit_adds_topk_and_finishing(self, catalog):
        p = plan(catalog, "SELECT a FROM t ORDER BY a DESC LIMIT 3")
        assert "topk" in kinds(p)
        assert p.finishing["limit"] == 3
        assert p.finishing["order_by"][0][1] is True

    def test_order_without_limit_no_topk(self, catalog):
        p = plan(catalog, "SELECT a FROM t ORDER BY a")
        assert "topk" not in kinds(p)
        assert "order_by" in p.finishing

    def test_columns_metadata(self, catalog):
        p = plan(catalog, "SELECT a AS alpha, b FROM t")
        assert p.metadata["columns"] == ["alpha", "b"]

    def test_deadline_after_all_flushes(self, catalog):
        p = plan(catalog, "SELECT a FROM t")
        assert p.deadline > max(p.flush_offsets.values())


class TestAggregationPlans:
    def test_global_aggregate_plan_shape(self, catalog):
        p = plan(catalog, "SELECT SUM(a) AS s, COUNT(*) AS n FROM t")
        assert "groupby_partial" in kinds(p)
        assert "groupby_final" in kinds(p)
        exchanges = p.ops_of_kind("exchange")
        assert len(exchanges) == 1
        assert exchanges[0].params["mode"] == "tree"

    def test_group_by_keyed_on_group(self, catalog):
        p = plan(catalog, "SELECT b, SUM(a) AS s FROM t GROUP BY b")
        exchange = p.ops_of_kind("exchange")[0]
        assert exchange.params["key"]["kind"] == "group"
        assert "combine" in exchange.params

    def test_partial_flushes_before_final(self, catalog):
        p = plan(catalog, "SELECT SUM(a) AS s FROM t")
        partial = p.ops_of_kind("groupby_partial")[0].op_id
        final = p.ops_of_kind("groupby_final")[0].op_id
        assert p.flush_offsets[partial] < p.flush_offsets[final]

    def test_having_moves_to_query_site_finishing(self, catalog):
        p = plan(catalog, "SELECT b, SUM(a) AS s FROM t GROUP BY b HAVING s > 10")
        aggregate = p.finishing["aggregate"]
        assert aggregate["having"] is not None
        # The final op feeds the result directly; filtering happens over
        # reconciled group states at the query site.
        final = p.ops_of_kind("groupby_final")[0].op_id
        result = p.specs[p.root_id]
        assert result.inputs == [final]

    def test_aggregate_result_in_replace_mode(self, catalog):
        p = plan(catalog, "SELECT SUM(a) AS s FROM t")
        assert p.specs[p.root_id].params["replace"] is True
        p2 = plan(catalog, "SELECT a FROM t")
        assert p2.specs[p2.root_id].params["replace"] is False


class TestJoinPlans:
    def test_shj_default_for_local_tables(self, catalog):
        p = plan(catalog, "SELECT t.a, u.y FROM t, u WHERE t.a = u.x")
        assert "shj" in kinds(p)
        assert len(p.ops_of_kind("exchange")) == 2

    def test_join_exchanges_key_on_join_columns(self, catalog):
        p = plan(catalog, "SELECT t.a, u.y FROM t, u WHERE t.a = u.x")
        for exchange in p.ops_of_kind("exchange"):
            assert exchange.params["key"]["kind"] == "exprs"

    def test_fm_chosen_when_inner_is_partitioned(self, catalog):
        p = plan(catalog, "SELECT t.a, d.v FROM t, d WHERE t.a = d.k")
        assert "fetch_matches" in kinds(p)
        assert "shj" not in kinds(p)

    def test_fm_not_chosen_on_non_partition_column(self, catalog):
        p = plan(catalog, "SELECT t.s, d.v FROM t, d WHERE t.s = d.v")
        assert "shj" in kinds(p)

    def test_forced_shj_overrides_fm(self, catalog):
        p = plan(catalog, "SELECT t.a, d.v FROM t, d WHERE t.a = d.k",
                 options={"join_strategy": "shj"})
        assert "shj" in kinds(p)

    def test_forced_fm_on_bad_table_rejected(self, catalog):
        with pytest.raises(PlanError):
            plan(catalog, "SELECT t.a, u.y FROM t, u WHERE t.a = u.x",
                 options={"join_strategy": "fm"})

    def test_bloom_adds_stages(self, catalog):
        p = plan(catalog, "SELECT t.a, u.y FROM t, u WHERE t.a = u.x",
                 options={"join_strategy": "bloom"})
        assert len(p.ops_of_kind("bloom_stage")) == 2
        assert "bloom_broadcast_offset" in p.metadata

    def test_cartesian_rejected(self, catalog):
        with pytest.raises(PlanError):
            plan(catalog, "SELECT t.a, u.y FROM t, u")

    def test_pushdown_single_table_predicates(self, catalog):
        p = plan(catalog,
                 "SELECT t.a, u.y FROM t, u WHERE t.a = u.x AND t.b > 5")
        scans = {s.op_id: s for s in p.ops_of_kind("scan")}
        selects = p.ops_of_kind("select")
        # The t.b > 5 filter must sit directly on a scan, before the join.
        assert any(s.inputs[0] in scans for s in selects)

    def test_join_then_aggregate(self, catalog):
        p = plan(catalog,
                 "SELECT u.y, COUNT(*) AS n FROM t, u WHERE t.a = u.x GROUP BY u.y")
        assert "shj" in kinds(p)
        assert "groupby_partial" in kinds(p)
        # Partial aggregation flushes after join rows can have arrived.
        partial = p.ops_of_kind("groupby_partial")[0].op_id
        assert p.flush_offsets[partial] > SCAN_READY + REHASH_XFER - 0.01


class TestContinuousPlans:
    def test_continuous_mode(self, catalog):
        p = plan(catalog,
                 "SELECT SUM(v) AS s FROM stream EVERY 30 SECONDS WINDOW 60 SECONDS")
        assert p.mode == "continuous"
        assert p.every == 30.0
        assert p.window == 60.0

    def test_lifetime_carried(self, catalog):
        p = plan(catalog,
                 "SELECT SUM(v) AS s FROM stream EVERY 10 SECONDS LIFETIME 100 SECONDS")
        assert p.lifetime == 100.0


class TestRecursivePlans:
    SQL = (
        "WITH RECURSIVE reach AS ("
        "  SELECT src, dst FROM link "
        "UNION "
        "  SELECT r.src AS src, l.dst AS dst FROM reach AS r, link AS l "
        "  WHERE r.dst = l.src"
        ") SELECT src, dst FROM reach"
    )

    def test_mode_and_cycle(self, catalog):
        p = plan(catalog, self.SQL)
        assert p.mode == "recursive"
        distinct = p.ops_of_kind("distinct")[0]
        # The distinct op has two inputs: base exchange and the back edge.
        assert len(distinct.inputs) == 2

    def test_fm_used_for_partitioned_edge_table(self, catalog):
        p = plan(catalog, self.SQL)
        assert "fetch_matches" in kinds(p)

    def test_shj_rehashes_both_legs_over_a_local_edge_table(self, catalog):
        catalog.define(TableDef("edge", Schema.of(("src", STR), ("dst", STR))))
        p = plan(catalog, self.SQL.replace("link", "edge"))
        assert "fetch_matches" not in kinds(p)
        (join,) = p.ops_of_kind("shj")
        (distinct,) = p.ops_of_kind("distinct")
        legs = [p.specs[op_id] for op_id in join.inputs]
        assert [leg.kind for leg in legs] == ["exchange", "exchange"]
        assert all(leg.params["mode"] == "rehash" for leg in legs)
        probe, build = (p.specs[leg.inputs[0]] for leg in legs)
        assert probe is distinct
        assert build.kind == "scan" and build.params["table"] == "edge"
        # The cycle: distinct's second input is the back-edge exchange,
        # fed by the step's projection of the join.
        back = p.specs[distinct.inputs[1]]
        assert back.kind == "exchange" and back.params["key"]["kind"] == "row"
        assert p.specs[back.inputs[0]].inputs == [join.op_id]

    def test_distinct_reports_progress(self, catalog):
        p = plan(catalog, self.SQL)
        assert p.ops_of_kind("distinct")[0].params["report_progress"]

    def test_plan_describe_mentions_root(self, catalog):
        p = plan(catalog, "SELECT a FROM t")
        text = p.describe()
        assert "root" in text and "scan" in text


class TestPlanValidation:
    def test_unknown_table(self, catalog):
        from repro.util.errors import CatalogError

        with pytest.raises(CatalogError):
            plan(catalog, "SELECT a FROM ghost")

    def test_opgraph_rejects_unknown_input(self):
        from repro.core.opgraph import OpSpec, QueryPlan

        with pytest.raises(PlanError):
            QueryPlan([OpSpec("a", "scan", {}, ["missing"])], "a")

    def test_opgraph_rejects_bad_root(self):
        from repro.core.opgraph import OpSpec, QueryPlan

        with pytest.raises(PlanError):
            QueryPlan([OpSpec("a", "scan", {})], "nope")

    def test_opgraph_rejects_duplicate_ids(self):
        from repro.core.opgraph import OpSpec, QueryPlan

        with pytest.raises(PlanError):
            QueryPlan([OpSpec("a", "scan", {}), OpSpec("a", "scan", {})], "a")

    def test_opgraph_rejects_bad_mode(self):
        from repro.core.opgraph import OpSpec, QueryPlan

        with pytest.raises(PlanError):
            QueryPlan([OpSpec("a", "scan", {})], "a", mode="quantum")

    def test_continuous_needs_every(self):
        from repro.core.opgraph import OpSpec, QueryPlan

        with pytest.raises(PlanError):
            QueryPlan([OpSpec("a", "scan", {})], "a", mode="continuous")
