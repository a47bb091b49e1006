"""Ext-E: recursive topology mapping (reference [2] of the demo).

Transitive closure over router graphs as a cyclic PIER dataflow:
publish the link relation into the DHT, run WITH RECURSIVE
reachability, verify completeness against networkx ground truth, and
report convergence time (sim) and messages per derived fact.

Expected shape: exact answers on every graph family; time-to-fixpoint
tracks graph *depth* (the ring is worst), not graph size; message cost
scales with the closure size (the number of derived facts), which is
the semi-naive property.
"""

from benchmarks._harness import fmt_table, full_scale, report
from repro.apps.topology import TopologyApp
from repro.core.network import PierNetwork


def run_graph(kind, n, degree, seed):
    net = PierNetwork(nodes=24, seed=seed)
    app = TopologyApp(net).publish_graph(kind=kind, n=n, seed=seed,
                                         degree=degree)
    truth = app.ground_truth()
    before_msgs = net.message_counters().get("messages_sent", 0)
    t_before = net.now
    handle = net.submit_sql(app.reachability_sql(),
                            options={"recursion_deadline": 90.0})
    net.advance(95)
    result = handle.result(0)
    pairs = {(s, d) for s, d in result.rows}
    elapsed = result.closed_at - t_before
    messages = net.message_counters().get("messages_sent", 0) - before_msgs
    return {
        "edges": app.graph.number_of_edges(),
        "facts": len(pairs),
        "truth": len(truth),
        "exact": pairs == truth,
        "sim_seconds": elapsed,
        "messages": messages,
    }


def test_recursive_topology():
    graphs = [
        ("ring", 16, 1),
        ("scale_free", 24, 4),
        ("random", 24, 3),
    ]
    if full_scale():
        graphs.append(("scale_free", 48, 4))

    rows = []
    for kind, n, degree in graphs:
        stats = run_graph(kind, n, degree, seed=17)
        rows.append((
            "{}({})".format(kind, n), stats["edges"], stats["facts"],
            stats["truth"], "yes" if stats["exact"] else "NO",
            round(stats["sim_seconds"], 1),
            round(stats["messages"] / max(1, stats["facts"]), 1),
        ))

    text = "Ext-E: recursive reachability over router graphs\n"
    text += "(24-node PIER testbed; link table DHT-partitioned on src)\n\n"
    text += fmt_table(
        ["graph", "edges", "derived facts", "ground truth", "exact",
         "sim s to fixpoint", "msgs/fact"],
        rows,
    )
    report("recursive_topology", text)

    for row in rows:
        assert row[4] == "yes", row[0]
    # The ring (depth N) converges slower than the shallow scale-free
    # graph despite having far fewer edges.
    ring = next(r for r in rows if r[0].startswith("ring"))
    sf = next(r for r in rows if r[0].startswith("scale_free"))
    assert ring[5] > sf[5] * 0.8
