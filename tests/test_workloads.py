"""Workload generators: placements, rates, alert calibration, graphs."""

import pytest

from repro.util.rng import SeededRng
from repro.workloads.generators import RateProcess
from repro.workloads.graphs import (
    edge_rows,
    ground_truth_reachability,
    make_graph,
)
from repro.workloads.planetlab import build_planetlab_network, planetlab_placements
from repro.workloads.snort_rules import TABLE1_RULES, TAIL_RULES


class TestPlanetlabPlacements:
    def test_count(self):
        assert len(planetlab_placements(300, seed=1)) == 300

    def test_coordinates_in_unit_square(self):
        for x, y in planetlab_placements(100, seed=2).values():
            assert 0 <= x <= 1 and 0 <= y <= 1

    def test_deterministic(self):
        assert planetlab_placements(50, seed=3) == planetlab_placements(50, seed=3)

    def test_site_clustering(self):
        placements = planetlab_placements(120, seed=4)
        by_site = {}
        for address, (x, y) in placements.items():
            site = address.rsplit("-", 1)[0]
            by_site.setdefault(site, []).append((x, y))
        multi = [pts for pts in by_site.values() if len(pts) > 1]
        assert multi
        for pts in multi:
            xs = [p[0] for p in pts]
            ys = [p[1] for p in pts]
            assert max(xs) - min(xs) < 0.05
            assert max(ys) - min(ys) < 0.05

    def test_network_builder(self):
        net = build_planetlab_network(40, seed=5)
        assert len(net) == 40
        assert all(a.startswith("plab-") for a in net.addresses())


class TestRateProcess:
    def test_nonnegative(self):
        process = RateProcess(SeededRng(1, "r"))
        assert all(process.sample(t * 5.0) >= 0 for t in range(200))

    def test_hosts_differ_in_scale(self):
        bases = [RateProcess(SeededRng(i, "r")).base for i in range(30)]
        assert max(bases) > 10 * min(bases)

    def test_bursts_occur(self):
        process = RateProcess(SeededRng(3, "r"), burst_rate=0.02,
                              burst_multiplier=50.0, noise=0.01)
        samples = [process.sample(t * 5.0) for t in range(400)]
        import statistics

        assert max(samples) > 10 * statistics.median(samples)


class TestSnortRules:
    def test_table1_verbatim(self):
        assert TABLE1_RULES[0] == (1322, "BAD-TRAFFIC bad frag bits", 465770)
        assert TABLE1_RULES[-1] == (895, "WEB-CGI redirect access", 7277)
        assert len(TABLE1_RULES) == 10

    def test_counts_strictly_ranked(self):
        counts = [hits for _i, _d, hits in TABLE1_RULES]
        assert counts == sorted(counts, reverse=True)

    def test_tail_below_top10(self):
        top_min = min(hits for _i, _d, hits in TABLE1_RULES)
        assert all(hits < top_min for _i, _d, hits in TAIL_RULES)


class TestGraphs:
    def test_kinds(self):
        for kind in ("random", "scale_free", "ring"):
            g = make_graph(kind, 12, seed=1, degree=4)
            assert g.number_of_nodes() == 12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_graph("hypercube", 8)

    def test_ring_edges(self):
        g = make_graph("ring", 5)
        assert g.number_of_edges() == 5

    def test_edge_rows_prefixed(self):
        g = make_graph("ring", 3)
        rows = edge_rows(g, prefix="x")
        assert ("x0", "x1") in rows

    def test_ground_truth_ring_includes_self(self):
        g = make_graph("ring", 4)
        truth = ground_truth_reachability(g)
        assert ("r0", "r0") in truth
        assert len(truth) == 16

    def test_ground_truth_chain_excludes_self(self):
        import networkx as nx

        g = nx.DiGraph()
        g.add_edges_from([(0, 1), (1, 2)])
        truth = ground_truth_reachability(g)
        assert truth == {("r0", "r1"), ("r0", "r2"), ("r1", "r2")}
