"""The four demo applications, end to end."""

import os
import subprocess
import sys

import pytest

from repro.apps import FileSharingApp, MonitoringApp, SnortApp, TopologyApp
from repro.core.network import PierNetwork


class TestSnortApp:
    @pytest.fixture
    def app(self):
        net = PierNetwork(nodes=20, seed=400)
        return SnortApp(net).install()

    def test_top10_matches_paper_ranking(self, app):
        result = app.top_rules(10)
        got = [(rule_id, descr) for rule_id, descr, _h in result.rows]
        assert got == app.ground_truth(10)

    def test_counts_equal_paper_totals(self, app):
        # Largest-remainder apportionment preserves network totals exactly.
        result = app.top_rules(10)
        for rule_id, _descr, hits in result.rows:
            assert hits == app.workload.expected_totals[rule_id]

    def test_tail_rules_excluded(self, app):
        result = app.top_rules(10)
        ids = {r[0] for r in result.rows}
        assert 1616 not in ids  # top tail rule must not break in

    def test_limit_respected(self, app):
        assert len(app.top_rules(3).rows) == 3

    def test_format_table_shape(self, app):
        text = app.format_table(app.top_rules(10))
        lines = text.splitlines()
        assert len(lines) == 11
        assert "BAD-TRAFFIC bad frag bits" in lines[1]

    def test_per_node_tables_heterogeneous(self, app):
        # Hotspot nodes should hold visibly more alerts than baseline ones.
        sizes = []
        for address in app.net.addresses():
            fragment = app.net.node(address).engine.fragment(app.table)
            sizes.append(sum(row[2] for row in fragment.scan()))
        assert max(sizes) > 2 * min(sizes)


class TestMonitoringApp:
    def test_series_without_churn_stable(self):
        net = PierNetwork(nodes=10, seed=401)
        app = MonitoringApp(net, sample_period=5.0, window=20.0).install()
        series = app.run(duration=120, every=30.0)
        assert len(series) == 4
        for _t, total, responding in series:
            assert responding == 10
            assert total > 0

    def test_series_under_churn_shows_dips(self):
        net = PierNetwork(nodes=16, seed=402)
        app = MonitoringApp(net, sample_period=5.0, window=20.0).install()
        site = net.any_address()
        net.start_churn(120.0, 60.0, on_join=app.on_join, exclude=[site])
        series = app.run(duration=240, every=30.0, node=site)
        assert len(series) >= 6
        counts = [responding for _t, _total, responding in series]
        assert min(counts) < 16  # some epoch saw missing nodes

    def test_sum_tracks_membership(self):
        net = PierNetwork(nodes=8, seed=403)
        app = MonitoringApp(net, sample_period=5.0, window=20.0).install()
        net.advance(25)
        app.start_query(every=20.0, lifetime=200.0)
        net.advance(50)
        full = app.series[-1]
        for address in net.addresses()[4:]:
            net.crash_node(address)
        net.advance(60)
        reduced = app.series[-1]
        assert reduced[1] < full[1]
        assert reduced[2] <= 4

    def test_stop_query(self):
        net = PierNetwork(nodes=6, seed=404)
        app = MonitoringApp(net, sample_period=5.0, window=20.0).install()
        net.advance(20)
        handle = app.start_query(every=10.0, lifetime=500.0)
        net.advance(25)
        handle.stop()
        seen = len(app.series)
        net.advance(50)
        assert len(app.series) <= seen + 1


class TestFileSharingApp:
    @pytest.fixture
    def app(self):
        net = PierNetwork(nodes=16, seed=405)
        app = FileSharingApp(net).publish_corpus(files_per_node=8)
        net.advance(3)
        return app

    def test_single_term_search_complete(self, app):
        pop = app.term_popularity()
        for term in (min(pop, key=pop.get), "linux"):
            assert app.search_sql([term]) == app.ground_truth([term])

    def test_search_broadcasts_nothing(self, app):
        for terms in (["linux"], ["music", "video"]):
            app.search_sql(terms)
        assert app.net.message_counters().get(
            "messages_kind_broadcast", 0) == 0

    def test_two_term_intersection(self, app):
        found = app.search_sql(["music", "video"])
        assert found == app.ground_truth(["music", "video"])

    def test_two_term_order_irrelevant(self, app):
        a = app.search_sql(["music", "video"])
        b = app.search_sql(["video", "music"])
        assert a == b

    def test_absent_term_empty(self, app):
        assert app.search_sql(["xyzzy-not-a-term"]) == []

    def test_popularity_zipfian(self, app):
        pop = sorted(app.term_popularity().values(), reverse=True)
        assert pop[0] > 3 * pop[-1]


PUBLISH_TRACE = """
from repro.apps import FileSharingApp
from repro.core.network import PierNetwork

net = PierNetwork(nodes=6, seed=9)
sends = []
net.net.on_deliver = lambda src, dst, message: sends.append(
    (net.now, src, dst, message.kind))
FileSharingApp(net).publish_corpus(files_per_node=3)
net.advance(3)
print(sends)
"""


def test_publish_order_does_not_depend_on_the_hash_seed():
    # Terms are strings, so a set of them iterates in an order that
    # PYTHONHASHSEED decides; the corpus must publish in one order.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    traces = []
    for seed in ("0", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        traces.append(subprocess.run(
            [sys.executable, "-c", PUBLISH_TRACE], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert traces[0] == traces[1]
    assert len(traces[0]) > 1000


class TestTopologyApp:
    def test_scale_free_closure(self):
        net = PierNetwork(nodes=12, seed=406)
        app = TopologyApp(net).publish_graph(kind="scale_free", n=12, seed=1, degree=4)
        assert app.compute_reachability() == app.ground_truth()

    def test_random_graph_closure(self):
        net = PierNetwork(nodes=12, seed=407)
        app = TopologyApp(net).publish_graph(kind="random", n=10, seed=2, degree=2)
        assert app.compute_reachability() == app.ground_truth()

    def test_neighborhood_query(self):
        net = PierNetwork(nodes=10, seed=408)
        app = TopologyApp(net).publish_graph(kind="ring", n=6, seed=0)
        sql = app.neighbors_within_sql("r0", hops=6)
        result = net.run_sql(sql, extra_time=5.0)
        # On a 6-ring, r0 reaches everyone including itself.
        assert {dst for _src, dst in result.rows} == {
            "r0", "r1", "r2", "r3", "r4", "r5"
        }
