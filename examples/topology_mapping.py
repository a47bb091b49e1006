"""Network topology mapping with a recursive query.

Run with:  python examples/topology_mapping.py

Publishes a scale-free router graph's link relation into the DHT and
computes full reachability with PIER's cyclic dataflow:

    WITH RECURSIVE reach AS (
        SELECT src, dst FROM link
      UNION
        SELECT r.src, l.dst FROM reach r, link l WHERE r.dst = l.src
    ) SELECT src, dst FROM reach

Novel pairs are deduplicated at their DHT owners and probe the link
table for successors; the query site detects the fixpoint by
quiescence. The answer is checked against networkx ground truth.
"""

from repro.apps.topology import TopologyApp
from repro.core.network import PierNetwork

HOSTS = 20
ROUTERS = 18


def main():
    print("Building a {}-host PIER testbed...".format(HOSTS))
    net = PierNetwork(nodes=HOSTS, seed=41)
    app = TopologyApp(net)
    print("Publishing a scale-free router graph ({} routers) into the DHT..."
          .format(ROUTERS))
    app.publish_graph(kind="scale_free", n=ROUTERS, seed=5, degree=4)
    print("   {} directed links".format(app.graph.number_of_edges()))

    print("\nRunning the recursive reachability query...")
    t0 = net.now
    pairs = app.compute_reachability()
    print("   fixpoint after {:.0f} simulated seconds".format(net.now - t0))
    print("   {} reachable (src, dst) pairs derived".format(len(pairs)))

    truth = app.ground_truth()
    print("   ground truth (networkx): {} pairs -> {}".format(
        len(truth), "EXACT MATCH" if pairs == truth else "MISMATCH"))

    # Per-router fan-out summary.
    fanout = {}
    for src, _dst in pairs:
        fanout[src] = fanout.get(src, 0) + 1
    print("\nMost-connected routers (reachable destinations):")
    for src in sorted(fanout, key=lambda r: (-fanout[r], r))[:5]:
        print("   {:<6} -> {:>3} routers  |{}|".format(
            src, fanout[src], "#" * fanout[src]))

    print("\nNeighborhood query: everything reachable from one router")
    result = net.run_sql(app.neighbors_within_sql("r0", hops=ROUTERS),
                         extra_time=5.0)
    print("   r0 reaches {} routers".format(len({d for _s, d in result.rows})))


if __name__ == "__main__":
    main()
