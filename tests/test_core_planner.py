"""Planner: plan shapes, strategy selection, timing, and errors."""

import pytest

from repro.core.planner import REHASH_XFER, SCAN_READY, family_plan, plan_query
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


def site_kinds(p):
    """The site fragment's operator kinds, in chain order."""
    return [s.kind for s in p.site_specs]


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
        (topk,) = p.site_specs
        assert topk.kind == "topk"
        assert topk.params["limit"] == 3
        assert topk.params["sort_keys"][0][1] is True

    def test_order_without_limit_no_topk(self, catalog):
        p = plan(catalog, "SELECT a FROM t ORDER BY a")
        assert "topk" not in kinds(p)
        (topk,) = p.site_specs
        assert topk.params["sort_keys"] and topk.params["limit"] is None

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
        assert site_kinds(p) == ["groupby_final", "select", "project"]
        assert p.site_specs[1].params["predicate"] is not None
        assert "select" not in kinds(p)
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


class TestSiteFragment:
    """What the query site runs after collection (``site_specs``): the
    owners' merge, HAVING, the SELECT list and ORDER BY / LIMIT, each
    lowered only when the query needs it, and never into ``specs``."""

    FAMILY = ("SELECT COUNT(*) AS n FROM stream WHERE v > 5 EVERY 10 "
              "SECONDS WINDOW 10 SECONDS LIFETIME 60 SECONDS")

    @pytest.mark.parametrize("sql, chain", [
        ("SELECT b, SUM(a) AS s FROM t GROUP BY b",
         ["groupby_final", "project"]),
        ("SELECT b, SUM(a) AS s FROM t GROUP BY b HAVING s > 10",
         ["groupby_final", "select", "project"]),
        ("SELECT b, SUM(a) AS s FROM t GROUP BY b ORDER BY s DESC LIMIT 2",
         ["groupby_final", "project", "topk"]),
        ("SELECT a FROM t ORDER BY a LIMIT 2", ["topk"]),
        ("SELECT a FROM t WHERE b > 1", []),
        (FAMILY, ["groupby_final", "project"]),
    ], ids=["aggregate", "having", "order-limit", "topk-only", "plain",
            "family-member"])
    def test_chain_per_query_shape(self, catalog, sql, chain):
        p = plan(catalog, sql)
        assert site_kinds(p) == chain
        assert not {s.op_id for s in p.site_specs} & set(p.specs)
        sites = [line for line in p.describe().splitlines()
                 if line.startswith("site:")]
        assert sites == (["site: " + " -> ".join(chain)] if chain else [])
        finals = [s for s in p.site_specs if s.kind == "groupby_final"]
        assert [s.params["finalize"] for s in finals] == [True] * len(finals)
        assert not any(s.params.get("finalize")
                       for s in p.ops_of_kind("groupby_final"))

    def test_family_member_keeps_its_own_chain(self, catalog):
        """The family's owners split its state per member before the
        rows leave, so each member's site merges its own aggregates."""
        p = plan(catalog, self.FAMILY)
        assert "family" in p.metadata
        (final,) = p.ops_of_kind("groupby_final")
        shared = family_plan(p)
        assert shared.site_specs == p.site_specs
        assert (p.site_specs[0].params["agg_specs"]
                == final.params["agg_specs"])


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


class TestEveryOpIsRead:
    """A plan holds no op that feeds nothing: a fetch-matches join gets
    its inner table by DHT get, so that table's scan is not lowered
    into the plan (op ids keep their numbers)."""

    RECURSIVE = (
        "WITH RECURSIVE reach AS ("
        "  SELECT src, dst FROM link "
        "UNION "
        "  SELECT r.src AS src, l.dst AS dst FROM reach AS r, link AS l "
        "  WHERE r.dst = l.src"
        ") SELECT src, dst FROM reach"
    )

    @pytest.mark.parametrize("sql, options", [
        ("SELECT t.a, d.v FROM t, d WHERE t.a = d.k AND d.v = 'x'", None),
        ("SELECT d.v, SUM(s.w) AS z FROM ticks s, d WHERE s.k = d.k "
         "GROUP BY d.v EVERY 10 SECONDS WINDOW 40 SECONDS", None),
        ("SELECT t.a, u.y FROM t, u WHERE t.a = u.x AND u.y = 'q'", None),
        ("SELECT t.a, u.y FROM t, u WHERE t.a = u.x",
         {"join_strategy": "bloom"}),
        ("SELECT a.v AS x, b.v AS y FROM d AS a, d AS b "
         "WHERE a.v = b.v AND a.k = 1 AND b.k = 2", None),
        (RECURSIVE, None),
    ], ids=["fm", "paned-fm-standing", "shj", "bloom", "at-site",
            "recursive"])
    def test_every_non_root_op_has_a_consumer(self, catalog, sql, options):
        catalog.define(TableDef("ticks", Schema.of(("k", INT), ("w", FLOAT)),
                                source="stream", window=60.0))
        p = plan(catalog, sql, options)
        for op_id in p.specs:
            assert op_id == p.root_id or p.consumers_of(op_id), op_id

    def test_fm_plan_keeps_its_op_ids(self, catalog):
        p = plan(catalog, "SELECT t.a, d.v FROM t, d WHERE t.a = d.k")
        assert sorted(p.specs) == ["op1", "op3", "op4", "op5"]
        assert p.ops_of_kind("fetch_matches")[0].op_id == "op3"


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


class TestFamilyStamp:
    """Which standing plans ride a predicate family
    (``metadata["family"]``) instead of a spine of their own."""

    TAIL = " EVERY 10 SECONDS WINDOW 30 SECONDS LIFETIME 60 SECONDS"

    @pytest.fixture
    def stamp(self, catalog):
        catalog.define(TableDef("ev", Schema.of(
            ("v", FLOAT), ("w", FLOAT), ("host", STR), ("k", INT)),
            source="stream", window=60.0))

        def stamp(select, where, rest="", options=None, tables="ev"):
            sql = "SELECT {} FROM {}{}{}".format(
                select, tables, " WHERE " + where if where else "", rest)
            return plan(catalog, sql + self.TAIL, options).metadata
        return stamp

    @pytest.mark.parametrize("select, where, rest", [
        ("SUM(v) AS s, COUNT(*) AS n", "v > 5", ""),
        ("COUNT(*) AS n", "5 < v", ""),
        ("COUNT(v) AS n", "v > 5", ""),
        ("AVG(v) AS a", "v <= 5", ""),
        ("MIN(w) AS m", "v >= 5", ""),
        ("MAX(v) AS m", "v < 5", ""),
        ("host, SUM(v) AS s", "v > 5", " GROUP BY host"),
    ])
    def test_one_threshold_under_an_exact_aggregate_is_stamped(
            self, stamp, select, where, rest):
        metadata = stamp(select, where, rest)
        assert metadata["family"] and metadata["prefix"]
        assert "spine" not in metadata

    @pytest.mark.parametrize("select, where, rest", [
        # bench_multi_query's VARIANTS: two comparisons.
        ("SUM(v) AS s, COUNT(*) AS n", "v > 5 AND v < 500", ""),
        ("SUM(v) AS s", "v < 5 OR v > 50", ""),
        ("SUM(v) AS s", "v > w", ""),
        ("SUM(v) AS s", "v = 5", ""),
        ("COUNT(DISTINCT host) AS d", "v > 5", ""),
        ("APPROX_COUNT_DISTINCT(host) AS d", "v > 5", ""),
        ("APPROX_TOPK(host, 3) AS t", "v > 5", ""),
        ("v", "v > 5", " ORDER BY v DESC LIMIT 3"),
        # The fig1_sum shape: no WHERE at all.
        ("SUM(v) AS s, COUNT(*) AS n", "", ""),
    ])
    def test_anything_else_is_not(self, stamp, select, where, rest):
        metadata = stamp(select, where, rest)
        assert "family" not in metadata
        assert metadata["spine"]

    def test_joins_and_the_opt_out_are_not(self, stamp):
        for strategy in ("fm", "shj"):
            join = stamp("SUM(ev.v) AS s", "ev.k = d.k AND ev.v > 5",
                         options={"join_strategy": strategy},
                         tables="ev, d")
            assert "family" not in join
        private = stamp("SUM(v) AS s", "v > 5", options={"shared": False})
        assert "family" not in private and "prefix" not in private

    def test_members_differ_only_in_the_constant(self, stamp):
        base = stamp("SUM(v) AS s, COUNT(*) AS n", "v > 5")["family"]
        assert stamp("SUM(v) AS x, COUNT(*) AS y", "v > 7.5")["family"] == base
        assert stamp("SUM(v) AS s, COUNT(*) AS n", "5 < v")["family"] == base
        for select, where in [("SUM(v) AS s, COUNT(*) AS n", "v >= 5"),
                              ("SUM(v) AS s, COUNT(*) AS n", "w > 5"),
                              ("SUM(v) AS s", "v > 5"),
                              ("COUNT(*) AS n, SUM(v) AS s", "v > 5")]:
            assert stamp(select, where)["family"] != base

    def test_family_plan_drops_the_filter_and_keeps_the_timing(self, catalog):
        from repro.core.planner import family_plan

        member = plan(catalog, "SELECT SUM(v) AS s FROM stream WHERE v > 5"
                      + self.TAIL)
        family = family_plan(member)
        assert kinds(family) == sorted(
            k if k != "groupby_partial" else "family_partial"
            for k in kinds(member) if k != "select")
        assert family.flush_offsets == member.flush_offsets
        assert family.deadline == member.deadline
        assert family.pane == member.pane


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
