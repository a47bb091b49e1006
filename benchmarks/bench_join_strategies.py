"""Ext-A: in-network join strategies (VLDB'03 §4 behaviours).

One equi-join R ⋈ S under three PIER strategies:

* symmetric hash (SHJ): rehash both sides -- baseline, bandwidth heavy;
* Bloom join: pre-filter both sides with exchanged Bloom filters --
  should cut rehash bytes sharply when the join is selective (few R
  keys match S), at the cost of filter round-trips (higher latency);
* fetch-matches (FM): S pre-published in the DHT partitioned on the
  join column -- probe-side gets only, cheapest when R is small.

Expected shape: all three agree on the answer; at low match fraction
Bloom moves the fewest rehash bytes; FM sends O(|R|) lookups
regardless; SHJ always pays full rehash of both sides.
"""

import pytest

from benchmarks._harness import fmt_table, report
from repro.core.network import PierNetwork

NODES = 48
R_ROWS_PER_NODE = 12
S_ROWS_PER_NODE = 12


def build_net(seed, match_fraction, with_dht_s=False):
    net = PierNetwork(nodes=NODES, seed=seed)
    net.create_local_table("r", [("a", "INT"), ("pad", "STR")])
    net.create_local_table("s", [("b", "INT"), ("pad", "STR")])
    if with_dht_s:
        net.create_dht_table("s_pub", [("b", "INT"), ("pad", "STR")],
                             partition_key="b", ttl=3600)
    pad = "x" * 40
    rng = net.rng.fork("workload")
    n_r = NODES * R_ROWS_PER_NODE
    matching = int(n_r * match_fraction)
    r_keys = list(range(n_r))
    # S keys overlap R on exactly `matching` values.
    s_keys = r_keys[:matching] + [10_000 + i for i in range(n_r - matching)]
    rng.shuffle(r_keys)
    rng.shuffle(s_keys)
    addresses = net.addresses()
    for i, key in enumerate(r_keys):
        net.insert(addresses[i % NODES], "r", [(key, pad)])
    for i, key in enumerate(s_keys):
        net.insert(addresses[i % NODES], "s", [(key, pad)])
        if with_dht_s:
            net.publish(addresses[i % NODES], "s_pub", (key, pad))
    if with_dht_s:
        net.advance(3)
    return net


def run_strategy(net, strategy, table_s="s"):
    before = dict(net.message_counters())
    sql = (
        "SELECT r.a AS a, s.pad AS p FROM r, {} AS s "
        "WHERE r.a = s.b".format(table_s)
    )
    options = None if strategy == "auto" else {"join_strategy": strategy}
    result = net.run_sql(sql, options=options)
    after = net.message_counters()

    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    return {
        "rows": len(result.rows),
        "messages": delta("messages_sent"),
        # Routed traffic is the join's data movement (tuple rehash / FM
        # gets); total traffic additionally includes overlay upkeep,
        # acks and dissemination, which all strategies share.
        "route_bytes": delta("bytes_kind_route"),
        "bytes": delta("bytes_sent"),
    }


@pytest.mark.parametrize("match_fraction", [0.05, 0.5])
def test_join_strategies(match_fraction):
    out = []
    expected = int(NODES * R_ROWS_PER_NODE * match_fraction)
    net = build_net(7, match_fraction)
    shj = run_strategy(net, "shj")
    net2 = build_net(7, match_fraction)
    bloom = run_strategy(net2, "bloom")
    net3 = build_net(7, match_fraction, with_dht_s=True)
    fm = run_strategy(net3, "auto", table_s="s_pub")
    for name, stats in (("SHJ", shj), ("Bloom", bloom), ("FM", fm)):
        out.append((name, stats["rows"], stats["messages"],
                    stats["route_bytes"], stats["bytes"]))

    text = "Ext-A: join strategy comparison (match fraction = {})\n".format(
        match_fraction)
    text += "({} nodes, |R| = |S| = {} rows)\n\n".format(
        NODES, NODES * R_ROWS_PER_NODE)
    text += fmt_table(
        ["strategy", "result rows", "messages", "rehash bytes", "total bytes"],
        out)
    report("join_strategies_match{}".format(match_fraction), text)

    by_name = {name: (rows, msgs, route, total)
               for name, rows, msgs, route, total in out}
    # Same answer everywhere.
    for name in ("SHJ", "Bloom", "FM"):
        assert by_name[name][0] == expected, name
    if match_fraction <= 0.1:
        # Selective join: Bloom must move far fewer rehash bytes.
        assert by_name["Bloom"][2] < 0.6 * by_name["SHJ"][2]
