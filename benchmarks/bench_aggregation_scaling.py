"""Ext-B: in-network aggregation vs. alternatives, scaling with N.

The demo's core efficiency claim: aggregates are computed *in* the
network, so the query site receives one (or a few) combined partials
instead of every node's raw rows. Three strategies, same query
(global SUM + COUNT over per-node rows):

* tree      -- PIER's hierarchical aggregation (per-hop combining),
* rehash    -- partials go to the group owner with no mid-route
               combining (ablation: the tree's benefit isolated),
* central   -- every raw row ships to the query site (baseline).

The metric that matters is **fan-in at the query site** (the paper's
bottleneck-link argument): rows and bytes arriving at the coordinator.
Expected shape: O(1) at the site for tree/rehash vs O(N x rows) for
central, with the gap growing linearly in N. Total network bytes go the
*other* way (multi-hop overlay routing moves each tuple several times)
-- an honest cost of the DHT substrate that EXPERIMENTS.md discusses.
"""

from benchmarks._harness import fmt_table, report
from repro.baselines.centralized import CentralizedAggregation
from repro.core.network import PierNetwork

ROWS_PER_NODE = 10


def build_net(n, seed):
    net = PierNetwork(nodes=n, seed=seed)
    net.create_local_table("m", [("v", "FLOAT")])
    for i, address in enumerate(net.addresses()):
        net.insert(address, "m",
                   [(float(i + j),) for j in range(ROWS_PER_NODE)])
    return net


def run_query(net, site, options=None):
    before_site = net.inbound_bytes(site)
    before_all = dict(net.net.inbound_bytes)
    before_total = net.message_counters().get("bytes_sent", 0)
    result = net.run_sql("SELECT SUM(v) AS s, COUNT(*) AS n FROM m",
                         node=site, options=options)
    # The hotspot: the single busiest inbound link during the query.
    # For centralized collection that is the site; for rehash it is the
    # group owner absorbing every node's partial; the aggregation tree
    # exists to flatten exactly this number.
    hotspot = max(
        net.net.inbound_bytes.get(a, 0) - before_all.get(a, 0)
        for a in net.addresses()
    )
    return result, {
        "site_bytes": net.inbound_bytes(site) - before_site,
        "hotspot_bytes": hotspot,
        "total_bytes": net.message_counters().get("bytes_sent", 0) - before_total,
    }


def test_aggregation_scaling():
    sizes = [32, 64, 128]

    rows = []
    for n in sizes:
        expected_sum = sum(
            float(i + j) for i in range(n) for j in range(ROWS_PER_NODE)
        )
        net = build_net(n, seed=20 + n)
        site = net.any_address()
        result, tree = run_query(net, site)
        assert result.rows[0] == (expected_sum, n * ROWS_PER_NODE)
        rows_site_tree = len(result.rows)

        net = build_net(n, seed=20 + n)
        site = net.any_address()
        result, rehash = run_query(net, site,
                                   options={"aggregation_tree": False})
        assert result.rows[0] == (expected_sum, n * ROWS_PER_NODE)

        net = build_net(n, seed=20 + n)
        site = net.any_address()
        before_site = net.inbound_bytes(site)
        central_rows, stats = CentralizedAggregation(net).run(
            "m", [], [("SUM", "v"), ("COUNT", None)], node=site,
        )
        central_site = net.inbound_bytes(site) - before_site
        assert central_rows[0] == (expected_sum, n * ROWS_PER_NODE)

        rows.append((
            n,
            tree["site_bytes"], central_site,
            tree["hotspot_bytes"], rehash["hotspot_bytes"],
            rows_site_tree, stats["raw_rows_collected"],
        ))

    text = "Ext-B: aggregation strategies -- fan-in at the bottleneck link\n"
    text += "(global SUM+COUNT over {} rows/node; hotspot = busiest\n".format(
        ROWS_PER_NODE)
    text += " inbound link anywhere during the query)\n\n"
    text += fmt_table(
        ["nodes", "site bytes tree", "site bytes central",
         "hotspot tree", "hotspot rehash",
         "rows@site tree", "rows@site central"],
        rows,
    )
    report("aggregation_scaling", text)

    ratios = []
    for (n, tree_site, central_site, hot_tree, hot_rehash,
         site_rows_tree, site_rows_central) in rows:
        assert site_rows_tree == 1
        assert site_rows_central == n * ROWS_PER_NODE
        # The query site's inbound load: in-network wins and the win
        # grows with N.
        assert tree_site < central_site
        ratios.append(central_site / tree_site)
    assert ratios[-1] > ratios[0]
    # The ablation: per-hop combining flattens the group owner's fan-in
    # relative to plain rehash of all partials (clearest at larger N).
    large = rows[-1]
    assert large[3] < large[4]
