"""Router-level graph synthesis for the topology-mapping application.

The demo cites recursive queries over P2P overlays and network
topologies (Loo et al., UCB tech report). We generate three families
with networkx -- random (Erdos-Renyi), scale-free (Barabasi-Albert,
closest to router graphs), and ring-lattice (worst case for recursion
depth) -- and publish their edges as a DHT ``link`` relation
partitioned on the source column, which is exactly the layout the
fetch-matches recursive join wants.

networkx is imported where it is used: ``repro.apps`` loads this
module, and only a process that builds a graph should pay 17 MB for it.
"""


def make_graph(kind, n, seed=0, degree=3, p=None):
    """Build a directed graph of ``n`` nodes; returns networkx DiGraph."""
    import networkx as nx

    if kind == "random":
        if p is None:
            p = min(1.0, degree / max(1, n - 1))
        g = nx.gnp_random_graph(n, p, seed=seed, directed=True)
    elif kind == "scale_free":
        undirected = nx.barabasi_albert_graph(n, max(1, degree // 2), seed=seed)
        g = nx.DiGraph()
        g.add_nodes_from(undirected.nodes)
        for u, v in undirected.edges:
            g.add_edge(u, v)
            g.add_edge(v, u)
    elif kind == "ring":
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        for i in range(n):
            g.add_edge(i, (i + 1) % n)
    else:
        raise ValueError("unknown graph kind {!r}".format(kind))
    return g


def edge_rows(g, prefix="r"):
    """(src, dst) string rows for the link relation."""
    return [
        ("{}{}".format(prefix, u), "{}{}".format(prefix, v))
        for u, v in g.edges
    ]


def publish_links(net, g, table="link", prefix="r", ttl=3600.0):
    """Create + populate the DHT link table across the testbed."""
    if not net.catalog.has_table(table):
        net.create_dht_table(
            table, [("src", "STR"), ("dst", "STR")],
            partition_key="src", ttl=ttl,
        )
    addresses = net.addresses()
    for i, row in enumerate(edge_rows(g, prefix)):
        net.publish(addresses[i % len(addresses)], table, row)
    return table


def ground_truth_reachability(g, prefix="r"):
    """All (src, dst) pairs with a directed path of length >= 1.

    Matches SQL transitive-closure semantics: (n, n) is included when n
    sits on a cycle (networkx's ``descendants`` always drops the source,
    so self-reachability needs the SCC/self-loop check).
    """
    import networkx as nx

    pairs = set()
    for node in g.nodes:
        for reachable in nx.descendants(g, node):
            pairs.add((
                "{}{}".format(prefix, node), "{}{}".format(prefix, reachable)
            ))
    for component in nx.strongly_connected_components(g):
        if len(component) > 1:
            for node in component:
                pairs.add(("{}{}".format(prefix, node),) * 2)
    for u, v in g.edges:
        if u == v:
            pairs.add(("{}{}".format(prefix, u),) * 2)
    return pairs
