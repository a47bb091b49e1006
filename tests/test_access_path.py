"""The get access path: one-shot scans pinned to a DHT partition key.

A one-shot query whose every scan is pinned to one partition key
(``key = const``) compiles to a plan that runs only at its query site:
each scan issues one ``get``, every operator runs there, nothing is
broadcast, and the answer closes one get round-trip after submission,
with no dissemination, result return or collection margin. These tests
hold the planner's choice to that rule and the answers to a
ground truth computed from the corpus.
"""

import pytest

from repro.apps.filesharing import VOCABULARY, FileSharingApp
from repro.core.dataflow import SiteQueryContext
from repro.core.network import PierNetwork
from repro.core.planner import HOLD, REHASH_XFER, plan_query
from repro.core.sql import parse_query
from repro.db.catalog import Catalog, TableDef
from repro.db.schema import Schema
from repro.db.types import FLOAT, INT, STR
from repro.dht.messages import parts_of
from repro.util.rng import SeededRng


@pytest.fixture
def catalog():
    c = Catalog()
    c.define(TableDef("d", Schema.of(("k", INT), ("v", STR)),
                      source="dht", partition_key="k"))
    c.define(TableDef("idx", Schema.of(("term", STR), ("doc", STR)),
                      source="dht", partition_key="term"))
    c.define(TableDef("f", Schema.of(("x", FLOAT), ("v", STR)),
                      source="dht", partition_key="x"))
    c.define(TableDef("t", Schema.of(("k", INT), ("v", STR))))
    return c


def plan(catalog, sql, options=None):
    return plan_query(parse_query(sql, options), catalog)


def scan_keys(p):
    return [s.params.get("key") for s in p.ops_of_kind("scan")]


class TestAccessPathChoice:
    def test_key_equality_becomes_a_get_at_the_site(self, catalog):
        p = plan(catalog, "SELECT v FROM d WHERE k = 7")
        assert p.at_site
        assert scan_keys(p) == [7]
        assert not p.ops_of_kind("exchange")

    def test_constant_on_the_left_and_alias(self, catalog):
        p = plan(catalog, "SELECT x.v FROM d AS x WHERE 7 = x.k AND x.v != 'a'")
        assert scan_keys(p) == [7]

    @pytest.mark.parametrize("sql", [
        "SELECT v FROM d",
        "SELECT v FROM d WHERE k > 7",
        "SELECT v FROM d WHERE k = 7 OR v = 'a'",
        "SELECT v FROM d WHERE k = 3 OR k = 1",  # no key lists yet
        "SELECT v FROM d WHERE k = '7'",  # not the type the key is stored as
        "SELECT v FROM f WHERE x = 1.5",  # FLOAT keys may be stored as int
        "SELECT v FROM t WHERE k = 7",  # a local table has no owner
        "SELECT v FROM d WHERE k = 7 EVERY 10 SECONDS",
    ])
    def test_unpinned_scans_broadcast(self, catalog, sql):
        assert not plan(catalog, sql).at_site

    def test_every_scan_must_be_pinned(self, catalog):
        both = plan(catalog, "SELECT a.doc FROM idx AS a, idx AS b "
                    "WHERE a.doc = b.doc AND a.term = 'x' AND b.term = 'y'")
        assert both.at_site
        assert scan_keys(both) == ["x", "y"]
        assert [s.inputs for s in both.ops_of_kind("shj")] == [["op2", "op4"]]
        one = plan(catalog, "SELECT a.doc FROM idx AS a, idx AS b "
                   "WHERE a.doc = b.doc AND a.term = 'x'")
        assert not one.at_site

    def test_a_named_join_strategy_keeps_the_broadcast(self, catalog):
        sql = ("SELECT a.doc FROM idx AS a, idx AS b WHERE a.doc = b.doc "
               "AND a.term = 'x' AND b.term = 'y'")
        assert not plan(catalog, sql, {"join_strategy": "shj"}).at_site

    def test_aggregate_folds_without_an_exchange(self, catalog):
        p = plan(catalog, "SELECT v, COUNT(*) AS n FROM d "
                 "WHERE k = 1 GROUP BY v")
        (partial,) = p.ops_of_kind("groupby_partial")
        (final,) = p.ops_of_kind("groupby_final")
        assert final.inputs == [partial.op_id]
        assert not p.ops_of_kind("exchange")

    def test_deadline_skips_the_network_stages(self, catalog):
        p = plan(catalog, "SELECT k, COUNT(*) AS n FROM d WHERE k = 1 GROUP BY k")
        assert p.deadline == pytest.approx(REHASH_XFER + 2 * HOLD)
        p = plan(catalog, "SELECT v FROM d WHERE k = 1")
        assert p.deadline == pytest.approx(REHASH_XFER)
        assert p.flush_offsets[p.root_id] == p.deadline

    def test_explain_names_the_path(self, catalog):
        text = plan(catalog, "SELECT v FROM d WHERE k = 7").describe()
        assert "scan [get 7]" in text
        assert "at the query site" in text
        assert "at the query site" not in plan(
            catalog, "SELECT v FROM d").describe()


@pytest.fixture(scope="module")
def files():
    net = PierNetwork(nodes=24, seed=11)
    app = FileSharingApp(net).publish_corpus(files_per_node=4)
    net.advance(3)
    return app


def _tap(net):
    """(destination, kind of every part) per wire message from now on."""
    seen = []

    def tap(src, dst, message):
        seen.append((dst, [part.kind for part in parts_of(message)]))

    net.net.on_deliver = tap
    return seen


def _truth(app, terms):
    return sorted((f, app.corpus[f][0]) for f in app.ground_truth(terms))


class TestRunsAtTheSite:
    def test_one_term_touches_few_nodes_and_closes_at_its_deadline(self, files):
        net = files.net
        seen = _tap(net)
        try:
            t0 = net.now
            result = net.run_sql(
                "SELECT file_id, owner FROM inverted WHERE term = 'music'",
                node="node5")
        finally:
            net.net.on_deliver = None
        assert sorted(result.rows) == _truth(files, ["music"])
        # One get round-trip, not dissemination + result return + collect.
        assert result.closed_at - t0 == pytest.approx(REHASH_XFER)
        query = {dst for dst, kinds in seen
                 if not {"rpc_req", "rpc_rep"} & set(kinds)}
        assert not any("broadcast" in kinds for _dst, kinds in seen)
        assert len(query) <= 6  # the route's hops and back, not 24 nodes

    def test_differential_against_the_corpus(self, files):
        net = files.net
        rng = SeededRng(5, "access-path")
        for _ in range(6):
            a, b = rng.sample(VOCABULARY[:8], 2)
            one = net.run_sql(
                "SELECT file_id, owner FROM inverted WHERE term = '{}'"
                .format(a), node=rng.choice(net.addresses()))
            assert sorted(one.rows) == _truth(files, [a])
            two = net.run_sql(
                "SELECT i1.file_id AS f, i1.owner AS o "
                "FROM inverted AS i1, inverted AS i2 "
                "WHERE i1.file_id = i2.file_id "
                "AND i1.term = '{}' AND i2.term = '{}'".format(a, b))
            assert sorted(two.rows) == _truth(files, [a, b])
            counts = net.run_sql(
                "SELECT term, COUNT(*) AS n FROM inverted "
                "WHERE term = '{}' GROUP BY term".format(a))
            popularity = files.term_popularity()
            assert counts.rows == ([(a, popularity[a])]
                                   if a in popularity else [])

    def test_same_answer_as_the_broadcast_scan(self, files):
        # term >= x AND term <= x pins nothing: the scan-everywhere leg.
        net = files.net
        site = net.run_sql(
            "SELECT file_id FROM inverted WHERE term = 'video'")
        everywhere = net.run_sql(
            "SELECT file_id FROM inverted "
            "WHERE term >= 'video' AND term <= 'video'")
        assert everywhere.rows
        assert sorted(site.rows) == sorted(everywhere.rows)

    def test_missing_key_answers_empty(self, files):
        net = files.net
        t0 = net.now
        result = net.run_sql(
            "SELECT file_id FROM inverted WHERE term = 'xyzzy'")
        assert result.rows == []
        assert result.closed_at - t0 == pytest.approx(REHASH_XFER)

    def test_deadline_closes_when_a_get_never_answers(self, files):
        net = files.net
        chord = net.node("node2").chord
        chord.get = lambda *args, **kwargs: None  # a reply that never comes
        try:
            t0 = net.now
            handle = net.submit_sql(
                "SELECT file_id FROM inverted WHERE term = 'music'",
                node="node2")
            net.advance(handle.plan.deadline + 1)
        finally:
            del chord.get
        result = handle.result(0)
        assert result.rows == []
        assert result.closed_at == pytest.approx(t0 + handle.plan.deadline)
        assert handle.execution.closed

    def test_stop_broadcasts_nothing(self, files):
        net = files.net
        handle = net.submit_sql(
            "SELECT file_id FROM inverted WHERE term = 'music'")
        assert isinstance(handle.execution.ctx, SiteQueryContext)
        sent =net.message_counters().get("messages_kind_broadcast", 0)
        handle.stop()
        net.advance(5)
        assert handle.execution.closed
        assert handle.result(0) is None
        assert net.message_counters().get(
            "messages_kind_broadcast", 0) == sent
