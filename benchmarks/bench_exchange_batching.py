"""Ext-F: exchange batching ablation (messages / bytes / latency).

The batching layer holds rehashed rows per routing key for a short
flush window and ships them as one ``deliver_batch`` message, so k
co-keyed rows cost one multi-hop route (plus one hop-ack per hop)
instead of k. This bench quantifies the trade on a rehash join shaped
like the PlanetLab monitoring workload: every host reports a handful of
attributes many samples at a time (so a sender's rows cluster on few
join keys), joined against an attribute-metadata relation.

Sweep: unbatched baseline (``max_batch_rows = 1``, the original
message-per-row exchange) against two batched configurations. Expected
shape: identical query results row for row, ``exchange_rows`` (tuples
moved) unchanged, ``exchange_messages`` (exchange payloads per hop)
down >= 3x at 100+ nodes and ``bytes_sent`` down with them, and a
latency price bounded by the flush window (rows wait at the sender
before travelling). Total ``messages_sent`` is reported, not gated:
the unbatched leg's rows leave a node at one instant, so the DHT's hop
bundling already puts them behind one ack per next hop -- what the
exchange batch still saves is the per-row payload and envelope.

Two further sweeps extend the ablation beyond the rehash join:

* **tree-mode aggregation** -- a grouped SUM/COUNT run through the
  in-network aggregation tree and through plain rehash, batched and
  unbatched: batching must leave the aggregates bit-identical in both
  exchange modes while shrinking hop messages;
* **lossy networks** -- the same aggregation under uniform message
  loss: hop-by-hop acks recover routed (exchange) traffic, and
  per-message dedup ids at the delivery layer (plus same-hop
  retransmit before rerouting) drop the replays those acks used to
  duplicate, so answers must stay near-complete, essentially never
  over-count, and never fabricate groups, with batching no more
  fragile than the per-row wire format.

Run standalone with ``python benchmarks/bench_exchange_batching.py``
(``--smoke`` for a 32-node quick pass usable next to tier-1).
"""

import sys

from repro.core.engine import EngineConfig
from repro.core.network import PierConfig, PierNetwork
from repro.sim.network import NetworkConfig

NODES = 100
ATTR_DOMAIN = 50
ATTRS_PER_NODE = 4
SAMPLES_PER_ATTR = 12

SMOKE_NODES = 32
SMOKE_SAMPLES = 6

SQL = (
    "SELECT r.attr AS attr, r.sample AS sample, r.origin AS origin, "
    "a.label AS label FROM readings AS r, attrs AS a "
    "WHERE r.attr = a.attr_id"
)

CONFIGS = [
    # (label, max_batch_rows)
    ("unbatched", 1),
    ("batch<=8", 8),
    ("batch<=64", 64),
]


def build_net(seed, nodes, samples, engine):
    net = PierNetwork(nodes=nodes, seed=seed, config=PierConfig(engine=engine))
    net.create_local_table(
        "readings", [("attr", "INT"), ("sample", "INT"), ("origin", "STR")]
    )
    net.create_local_table("attrs", [("attr_id", "INT"), ("label", "STR")])
    addresses = net.addresses()
    for attr in range(ATTR_DOMAIN):
        net.insert(addresses[attr % nodes], "attrs",
                   [(attr, "attr-{}".format(attr))])
    rng = net.rng.fork("workload")
    for address in addresses:
        mine = rng.sample(range(ATTR_DOMAIN), ATTRS_PER_NODE)
        rows = [(attr, s, address) for attr in mine for s in range(samples)]
        net.insert(address, "readings", rows)
    return net


def run_config(seed, nodes, samples, max_batch_rows):
    engine = EngineConfig(max_batch_rows=max_batch_rows)
    net = build_net(seed, nodes, samples, engine)
    site = net.any_address()

    # Timestamp result arrivals at the query site: batching's latency
    # price is how much later the last answer-bearing message lands.
    coordinator = net.node(site).coordinator
    arrivals = []
    inner_on_result = coordinator.on_result

    def stamped_on_result(payload):
        arrivals.append(net.now)
        inner_on_result(payload)

    coordinator.on_result = stamped_on_result

    before = dict(net.message_counters())
    t0 = net.now
    result = net.run_sql(SQL, node=site)
    after = net.message_counters()

    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    return {
        "rows": sorted(result.rows),
        "messages": delta("messages_sent"),
        "bytes": delta("bytes_sent"),
        "exchange_messages": delta("exchange_messages"),
        "exchange_batches": delta("exchange_batches"),
        "exchange_rows": delta("exchange_rows"),
        "exchange_bytes": delta("exchange_bytes"),
        "result_latency": (max(arrivals) - t0) if arrivals else float("nan"),
    }


def run_sweep(seed=11, nodes=NODES, samples=SAMPLES_PER_ATTR):
    """Run every config on the same workload; returns (expected, stats)."""
    expected_rows = nodes * ATTRS_PER_NODE * samples
    stats = []
    for label, max_batch_rows in CONFIGS:
        out = run_config(seed, nodes, samples, max_batch_rows)
        stats.append((label, out))
    return expected_rows, stats


BYTES_FLOOR = 1.5


def check_sweep(expected_rows, stats, min_ratio):
    """Assert the acceptance properties; returns the reductions in
    exchange payloads per hop and in bytes (best batched vs unbatched)."""
    baseline = stats[0][1]
    assert len(baseline["rows"]) == expected_rows, (
        "baseline produced {} rows, expected {}".format(
            len(baseline["rows"]), expected_rows
        )
    )
    for label, out in stats[1:]:
        assert out["rows"] == baseline["rows"], (
            "{}: batched results differ from the unbatched baseline".format(label)
        )
        assert out["exchange_rows"] == baseline["exchange_rows"], (
            "{}: batching changed how many tuples moved".format(label)
        )
    best = stats[-1][1]
    ratio = baseline["exchange_messages"] / max(1, best["exchange_messages"])
    assert ratio >= min_ratio, (
        "exchange_messages reduction {:.2f}x is below the {}x floor".format(
            ratio, min_ratio
        )
    )
    bytes_ratio = baseline["bytes"] / max(1, best["bytes"])
    assert bytes_ratio >= BYTES_FLOOR, (
        "bytes_sent reduction {:.2f}x is below the {}x floor".format(
            bytes_ratio, BYTES_FLOOR
        )
    )
    return ratio, bytes_ratio


# ----------------------------------------------------------------------
# Aggregation sweep: tree-mode vs rehash, clean and lossy
# ----------------------------------------------------------------------
AGG_NODES = 48
AGG_GROUPS = 8
AGG_ROWS_PER_NODE = 12
AGG_SQL = (
    "SELECT g, SUM(v) AS total, COUNT(*) AS n FROM m GROUP BY g"
)
LOSS_RATE = 0.03


def build_agg_net(seed, nodes, max_batch_rows, loss_rate):
    engine = EngineConfig(max_batch_rows=max_batch_rows)
    config = PierConfig(engine=engine,
                        network=NetworkConfig(loss_rate=loss_rate))
    net = PierNetwork(nodes=nodes, seed=seed, config=config)
    net.create_local_table("m", [("g", "INT"), ("v", "INT")])
    for i, address in enumerate(net.addresses()):
        rows = [((i + j) % AGG_GROUPS, i + j) for j in range(AGG_ROWS_PER_NODE)]
        net.insert(address, "m", rows)
    return net


def run_agg_config(seed, nodes, tree, max_batch_rows, loss_rate=0.0):
    net = build_agg_net(seed, nodes, max_batch_rows, loss_rate)
    before = dict(net.message_counters())
    result = net.run_sql(
        AGG_SQL, options={"aggregation_tree": tree}, extra_time=4.0
    )
    after = net.message_counters()

    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    return {
        "rows": sorted(result.rows),
        "messages": delta("messages_sent"),
        "exchange_messages": delta("exchange_messages"),
        "exchange_rows": delta("exchange_rows"),
        "lost": delta("messages_lost"),
    }


def run_agg_sweep(seed=13, nodes=AGG_NODES, loss_rate=LOSS_RATE):
    """(label -> stats) for {tree, rehash} x {unbatched, batched} x
    {clean, lossy}."""
    out = {}
    for tree in (True, False):
        mode = "tree" if tree else "rehash"
        for batched in (False, True):
            cap = EngineConfig().max_batch_rows if batched else 1
            batch_label = "batched" if batched else "unbatched"
            out["{}/{}".format(mode, batch_label)] = run_agg_config(
                seed, nodes, tree, cap
            )
            out["{}/{}/lossy".format(mode, batch_label)] = run_agg_config(
                seed, nodes, tree, cap, loss_rate
            )
    return out


def check_agg_sweep(stats):
    """Equivalence in clean nets; bounded degradation under loss."""
    reference = stats["rehash/unbatched"]["rows"]
    assert reference, "aggregation produced no groups"
    total_ref = sum(n for _g, _total, n in reference)
    # Clean networks: every mode/batching combination is bit-identical.
    for label in ("rehash/batched", "tree/unbatched", "tree/batched"):
        assert stats[label]["rows"] == reference, (
            "{}: aggregates differ from the rehash/unbatched baseline".format(label)
        )
    # Aggregation ships one (group, states) row per key per node, so
    # there is nothing co-keyed to batch: the batched wire must simply
    # not cost *more* hops than the per-row one. ``exchange_messages``
    # counts hops, and the batched leg sends a flush delay later, so a
    # finger refreshed in between re-routes the odd message by a hop
    # (269 vs 268 at the smoke scale): allow 1%, at least two hops.
    for mode in ("rehash", "tree"):
        unbatched = stats["{}/unbatched".format(mode)]["exchange_messages"]
        batched = stats["{}/batched".format(mode)]["exchange_messages"]
        assert batched <= unbatched + max(2, unbatched // 100), (
            "{}: batched {} hops vs unbatched {}".format(
                mode, batched, unbatched))
    # Lossy networks: no fabricated groups, near-complete counts, and
    # batching no worse than the per-row wire format.
    for mode in ("rehash", "tree"):
        lossy_counts = []
        for batch_label in ("unbatched", "batched"):
            out = stats["{}/{}/lossy".format(mode, batch_label)]
            assert out["lost"] > 0, "loss hook did not drop messages"
            groups_ref = {g for g, _t, _n in reference}
            assert {g for g, _t, _n in out["rows"]} <= groups_ref
            total = sum(n for _g, _t, n in out["rows"])
            # Hop-by-hop acks make routed forwarding at-least-once, but
            # per-message dedup ids at the delivery layer drop the
            # replays, so over-count is bounded to the rare cross-node
            # duplicate (a retry delivered at an heir during ownership
            # ambiguity) -- a few messages, not a few percent. Loss of
            # result-return traffic still under-counts.
            assert 0.75 * total_ref <= total <= 1.02 * total_ref, (
                "{}/{} drifted too far under {}% loss: {}/{}".format(
                    mode, batch_label, LOSS_RATE * 100, total, total_ref
                )
            )
            lossy_counts.append(total)
        # Compare *drift from the truth*, not raw totals: duplication
        # can push the per-row run over the reference, and a batched
        # run closer to the truth must not fail for being smaller.
        drift_unbatched = abs(lossy_counts[0] - total_ref) / total_ref
        drift_batched = abs(lossy_counts[1] - total_ref) / total_ref
        assert drift_batched <= drift_unbatched + 0.15, (
            "{}: batching drifts materially further from the truth "
            "({:.0%} vs {:.0%})".format(mode, drift_batched, drift_unbatched)
        )
    return total_ref


def agg_exhibit(nodes, stats, total_ref):
    from benchmarks._harness import fmt_table

    text = (
        "\n\nAggregation sweep: tree vs rehash, clean and {}% lossy\n"
        "({} nodes, {} rows over {} groups; reference count {})\n\n".format(
            int(LOSS_RATE * 100), nodes, nodes * AGG_ROWS_PER_NODE,
            AGG_GROUPS, total_ref,
        )
    )
    rows = []
    for label in ("rehash/unbatched", "rehash/batched",
                  "tree/unbatched", "tree/batched",
                  "rehash/unbatched/lossy", "rehash/batched/lossy",
                  "tree/unbatched/lossy", "tree/batched/lossy"):
        out = stats[label]
        rows.append((
            label, sum(n for _g, _t, n in out["rows"]),
            out["messages"], out["exchange_messages"],
            out["exchange_rows"], out["lost"],
        ))
    text += fmt_table(
        ["config", "counted rows", "messages", "exch msgs (hops)",
         "exch rows", "lost"],
        rows,
    )
    text += (
        "\n\nnote: grouped partials are one row per key per node, so "
        "batching is structurally\nneutral here (asserted no worse); "
        "the tree rows show in-network combining absorbing\nhops "
        "instead. Hop-by-hop acks make routed forwarding "
        "at-least-once, but exchange\ndelivery is exactly-once per "
        "node: every deliver/deliver_batch carries a dedup id,\n"
        "replays are dropped at the delivery layer, and a silent hop "
        "is retransmitted (same\nid, deduped) before being rerouted. "
        "Lossy counts therefore under-count from lost\nresult traffic "
        "but essentially never over-count (asserted within "
        "[-25%, +2%]) and\nnever fabricate groups.\n"
    )
    return text


def exhibit(nodes, samples, expected_rows, stats, ratios):
    from benchmarks._harness import fmt_table

    text = "Ext-F: exchange batching on a rehash join\n"
    text += "({} nodes, {} reading rows + {} attr rows, {} result rows)\n\n".format(
        nodes, nodes * ATTRS_PER_NODE * samples, ATTR_DOMAIN, expected_rows
    )
    table_rows = []
    for label, out in stats:
        table_rows.append((
            label, len(out["rows"]), out["messages"], out["bytes"],
            out["exchange_messages"], out["exchange_rows"],
            out["result_latency"],
        ))
    text += fmt_table(
        ["config", "result rows", "messages", "bytes",
         "exch msgs (hops)", "exch rows", "last row (s)"],
        table_rows,
    )
    text += (
        "\n\nbest batched vs unbatched: exchange payloads per hop "
        "{:.2f}x fewer, bytes {:.2f}x fewer\n".format(*ratios)
    )
    return text


def test_exchange_batching(benchmark):
    from benchmarks._harness import report, run_once

    def run():
        expected_rows, stats = run_sweep()
        ratios = check_sweep(expected_rows, stats, min_ratio=3.0)
        agg_stats = run_agg_sweep()
        total_ref = check_agg_sweep(agg_stats)
        return expected_rows, stats, ratios, agg_stats, total_ref

    expected_rows, stats, ratios, agg_stats, total_ref = run_once(benchmark, run)
    text = exhibit(NODES, SAMPLES_PER_ATTR, expected_rows, stats, ratios)
    text += agg_exhibit(AGG_NODES, agg_stats, total_ref)
    report("exchange_batching", text)
    for label, out in stats:
        benchmark.extra_info[label] = {
            "messages": out["messages"],
            "bytes": out["bytes"],
            "exchange_messages": out["exchange_messages"],
            "result_latency": out["result_latency"],
        }
    for label, out in agg_stats.items():
        benchmark.extra_info["agg:" + label] = {
            "messages": out["messages"],
            "exchange_messages": out["exchange_messages"],
            "lost": out["lost"],
        }


def main(argv=None):
    import argparse

    from benchmarks._harness import begin

    begin("exchange_batching")

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="quick 32-node pass (same checks, 2x exchange-message floor)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        nodes, samples, min_ratio, agg_nodes = SMOKE_NODES, SMOKE_SAMPLES, 2.0, 24
    else:
        nodes, samples, min_ratio, agg_nodes = (
            NODES, SAMPLES_PER_ATTR, 3.0, AGG_NODES
        )
    expected_rows, stats = run_sweep(nodes=nodes, samples=samples)
    ratio, bytes_ratio = check_sweep(expected_rows, stats, min_ratio)
    print(exhibit(nodes, samples, expected_rows, stats, (ratio, bytes_ratio)))
    agg_stats = run_agg_sweep(nodes=agg_nodes)
    total_ref = check_agg_sweep(agg_stats)
    print(agg_exhibit(agg_nodes, agg_stats, total_ref))
    from benchmarks._harness import write_metrics

    write_metrics("exchange_batching", {
        "parity": True,
        "agg_within_bounds": True,
        "exchange_message_reduction": round(ratio, 4),
        "bytes_reduction": round(bytes_ratio, 4),
    }, scale="smoke" if args.smoke else "full")
    print("ok: results identical, exchange messages {:.2f}x >= {}x and "
          "bytes {:.2f}x >= {}x fewer; aggregation sweep (tree + lossy) "
          "within bounds".format(ratio, min_ratio, bytes_ratio, BYTES_FLOOR))
    return 0


if __name__ == "__main__":
    import pathlib

    # Run as a script, ``benchmarks`` is not a package on sys.path yet.
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    sys.exit(main())
