"""Ext-I: 1k near-duplicate standing queries on one subscription spine.

The multi-query workload PIER's monitoring apps imply: many operators
submit *the same* continuous query, each written slightly differently
(different table aliases, flipped comparisons, reordered WHERE
conjuncts, different output column names). The logical-plan phase
canonicalizes all of them to one DAG, so every submission carries the
same ``share_signature`` and the engines run the whole fleet on ONE
shared dataflow spine per node (``core/sharing.py``): one
StandingExecution, hence one stream scan and one set of exchange flows
-- only the result operator fans per-epoch rows out to each subscriber.

The sweep submits Q in {1, 100, 1000} near-duplicates at the same sim
instant and measures rows scanned and exchange hops for the whole
fleet; an ``unshared`` leg (``{"shared": False}``) runs the 100-query
fleet as private executions for the per-query parity reference and the
cost-of-not-sharing exhibit. A control query over a *different* window
geometry rides along and must stay off the spine.

Acceptance properties asserted here:

* every query in the shared fleet returns per-epoch results identical
  to its private (unshared) twin -- sharing is invisible to answers;
* at Q=100 the shared fleet's rows scanned and exchange hops are each
  <= 1.5x the single-query run (the fleet costs about one query);
* the unshared fleet pays per-query: strictly more scans and exchange
  hops than the shared fleet at the same Q;
* the different-geometry control never joins the spine and still
  answers.

A second sweep exercises the layer BELOW whole-plan sharing: common
*sub*-plan sharing. Q queries with pairwise-different WHERE predicates
cannot share a spine (their dataflows differ), but they all scan the
same stream table on the same epoch grid, so the engines run ONE
shared prefix stage (scan -> demux) per node and fan each epoch's scan
waves into every query's private tail. The sweep submits Q in
{1, 10, 100} different-predicate queries, measures fleet rows scanned
(bar: the 100-query fleet scans <= 1.5x ONE query's rows), and runs
the same fleet with every query opted out (``{"shared": False}``) as
the per-query parity reference -- sharing must be invisible to answers.

Run standalone with ``python benchmarks/bench_multi_query.py``
(``--smoke`` for a quick pass usable next to tier-1).
"""

import math
import sys

from repro.core.network import PierNetwork
from repro.core.sharing import SpineRecord, StageRecord

NODES = 12
QS = (1, 100, 1000)
UNSHARED_Q = 100
PREFIX_QS = (1, 10, 100)
SMOKE_PREFIX_QS = (1, 100)
DISTINCT_PREDICATES = 90  # prefix_sql cycles this many thresholds
EVERY = 10.0
WINDOW = 10.0
LIFETIME = 30.0
SAMPLE_PERIOD = 2.0

SMOKE_NODES = 8
SMOKE_QS = (1, 100)

TAIL = "EVERY {} SECONDS WINDOW {} SECONDS LIFETIME {} SECONDS"

# Four surface forms of one query: alias renames, flipped comparisons,
# reordered conjuncts, different output names. The logical phase
# canonicalizes all of them to the same DAG + share signature.
VARIANTS = (
    "SELECT SUM(rate_kbps) AS total_rate, COUNT(*) AS samples "
    "FROM node_stats WHERE rate_kbps > 5 AND rate_kbps < 500 ",
    "SELECT SUM(ns.rate_kbps) AS tr, COUNT(*) AS n "
    "FROM node_stats ns WHERE ns.rate_kbps < 500 AND ns.rate_kbps > 5 ",
    "SELECT SUM(s.rate_kbps) AS sum_rate, COUNT(*) AS cnt "
    "FROM node_stats s WHERE 5 < s.rate_kbps AND s.rate_kbps < 500 ",
    "SELECT SUM(rate_kbps) AS x, COUNT(*) AS y "
    "FROM node_stats WHERE 500 > rate_kbps AND 5 < rate_kbps ",
)

CONTROL_SQL = (
    "SELECT SUM(rate_kbps) AS total_rate, COUNT(*) AS samples "
    "FROM node_stats WHERE rate_kbps > 5 AND rate_kbps < 500 "
    + TAIL.format(int(EVERY), int(2 * WINDOW), int(LIFETIME))
)


def variant_sql(i):
    return VARIANTS[i % len(VARIANTS)] + TAIL.format(
        int(EVERY), int(WINDOW), int(LIFETIME)
    )


def prefix_sql(i):
    """A per-query predicate: same scan + epoch grid, different tail.

    Thresholds land inside the ticker's value range so every query
    filters a different (nonempty) subset -- no two plans canonicalize
    together, yet all share the one scan stage.
    """
    threshold = 8.0 + (i % DISTINCT_PREDICATES)
    return (
        "SELECT SUM(rate_kbps) AS total_rate, COUNT(*) AS samples "
        "FROM node_stats WHERE rate_kbps > {} ".format(threshold)
        + TAIL.format(int(EVERY), int(WINDOW), int(LIFETIME))
    )


def build_net(seed, nodes):
    net = PierNetwork(nodes=nodes, seed=seed)
    net.create_stream_table(
        "node_stats", [("rate_kbps", "FLOAT")], window=2 * WINDOW
    )
    rng = net.rng.fork("rates")

    def make_ticker(address, base):
        step = [0]

        def tick():
            engine = net.node(address).engine
            step[0] += 1
            engine.stream_append("node_stats", (base + (step[0] % 7),))
            engine.set_timer(SAMPLE_PERIOD, tick)

        return tick

    for address in net.addresses():
        tick = make_ticker(address, 10.0 + 90.0 * rng.random())
        net.node(address).engine.set_timer(0.1, tick)
    return net


def run_fleet(seed, nodes, q, shared):
    """Submit ``q`` near-duplicates at one instant; measure the fleet."""
    net = build_net(seed, nodes)
    net.advance(WINDOW)  # fill the first window
    before = dict(net.message_counters())
    scans_before = sum(n.engine.rows_scanned for n in net.nodes.values())
    site = net.any_address()
    options = None if shared else {"shared": False}
    fleet = []
    for i in range(q):
        results = []
        handle = net.submit_sql(variant_sql(i), node=site,
                                on_epoch=results.append, options=options)
        assert handle.plan.standing
        if shared:
            assert handle.plan.metadata.get("spine"), (
                "near-duplicate {} was not stamped shareable".format(i)
            )
        else:
            assert handle.plan.metadata.get("spine") is None
        fleet.append((handle, results))
    assert len({h.plan.metadata.get("spine") for h, _r in fleet}) == 1, (
        "near-duplicates canonicalized to different signatures"
    )
    net.advance(LIFETIME + fleet[0][0].plan.deadline + 5.0)
    if shared and q > 1:
        # The whole fleet rides one StandingExecution per node.
        for address in net.addresses():
            engine = net.node(address).engine
            for rec in engine.records.values():
                if (isinstance(rec, SpineRecord) and rec.execution is not None
                        and rec.plan.window == WINDOW):
                    assert len(rec.subscribers) == q, (
                        "{}: spine carries {} of {} subscribers".format(
                            address, len(rec.subscribers), q)
                    )
    after = net.message_counters()
    scans_after = sum(n.engine.rows_scanned for n in net.nodes.values())
    # Tree-edge hop caching: combiner forwards that went direct to the
    # learned terminal owner instead of re-walking the stable route.
    # Closed combiners fold their counters into the engine totals;
    # still-registered ones are read live.
    forwards = shortcuts = 0
    for n in net.nodes.values():
        forwards += n.engine.tree_forwards
        shortcuts += n.engine.tree_hop_shortcuts
        for combiner in n.engine.combiners.values():
            forwards += combiner.forwarded
            shortcuts += combiner.hop_shortcuts
    return {
        "queries": q,
        "tree_forwards": forwards,
        "tree_hop_shortcuts": shortcuts,
        "per_query": [
            {r.epoch: sorted(r.rows) for r in results}
            for _h, results in fleet
        ],
        "messages": after.get("messages_sent", 0) - before.get("messages_sent", 0),
        "exchange_messages": (after.get("exchange_messages", 0)
                              - before.get("exchange_messages", 0)),
        "rows_scanned": scans_after - scans_before,
    }


def run_control(seed, nodes):
    """A different-geometry query next to the fleet: own spine, own
    answers. Unmeasured -- it exists to prove sharing has a boundary."""
    net = build_net(seed, nodes)
    net.advance(WINDOW)
    site = net.any_address()
    fleet_results = []
    fleet_handle = net.submit_sql(variant_sql(0), node=site,
                                  on_epoch=fleet_results.append)
    control_results = []
    control_handle = net.submit_sql(CONTROL_SQL, node=site,
                                    on_epoch=control_results.append)
    assert (control_handle.plan.metadata.get("spine")
            != fleet_handle.plan.metadata.get("spine")), (
        "different-geometry control joined the fleet's spine"
    )
    net.advance(LIFETIME + control_handle.plan.deadline + 5.0)
    return {r.epoch: sorted(r.rows) for r in control_results}


def run_prefix_fleet(seed, nodes, q, shared):
    """Submit ``q`` different-predicate queries at one instant.

    ``shared=False`` submits the identical fleet under
    ``{"shared": False}`` -- every query fully private -- as the parity
    reference and the cost exhibit.
    """
    net = build_net(seed, nodes)
    net.advance(WINDOW)  # fill the first window
    before = dict(net.message_counters())
    scans_before = sum(n.engine.rows_scanned for n in net.nodes.values())
    site = net.any_address()
    fleet = []
    for i in range(q):
        results = []
        handle = net.submit_sql(prefix_sql(i), node=site,
                                on_epoch=results.append,
                                options=None if shared else {"shared": False})
        assert handle.plan.standing
        if shared:
            assert handle.plan.metadata.get("prefix"), (
                "query {} was not stamped prefix-shareable".format(i)
            )
        fleet.append((handle, results))
    if shared:
        assert len({h.plan.metadata.get("prefix") for h, _r in fleet}) == 1, (
            "different-predicate fleet split into multiple prefix keys"
        )
        assert (len({h.plan.metadata.get("spine") for h, _r in fleet})
                == min(q, DISTINCT_PREDICATES)), (
            "distinct predicates should NOT canonicalize to one spine"
        )
    # Probe mid-run, while the stage is alive: the whole fleet's scans
    # ride ONE prefix stage (one scan reading the table) per node.
    net.advance(2 * EVERY + 1.0)
    for address in net.addresses():
        engine = net.node(address).engine
        readers = sum(
            op.spec.kind == "scan" and not op.ctx.prefix_fed
            for rec in engine.records.values() if rec.execution is not None
            for op in rec.execution.ops.values())
        if shared:
            stages = [rec for rec in engine.records.values()
                      if isinstance(rec, StageRecord)]
            assert len(stages) == 1, (
                "{}: {} prefix stages for one fleet".format(
                    address, len(stages))
            )
            members = len(stages[0].members())
            assert members == min(q, DISTINCT_PREDICATES), (
                "{}: stage carries {} of {} member spines".format(
                    address, members, min(q, DISTINCT_PREDICATES))
            )
            assert readers == 1
        else:
            assert not any(isinstance(rec, (SpineRecord, StageRecord))
                           for rec in engine.records.values())
            assert readers == q  # every private query reads the table itself
    net.advance(LIFETIME + fleet[0][0].plan.deadline + 5.0 - 2 * EVERY - 1.0)
    after = net.message_counters()
    scans_after = sum(n.engine.rows_scanned for n in net.nodes.values())
    return {
        "queries": q,
        "per_query": [
            {r.epoch: sorted(r.rows) for r in results}
            for _h, results in fleet
        ],
        "messages": after.get("messages_sent", 0) - before.get("messages_sent", 0),
        "exchange_messages": (after.get("exchange_messages", 0)
                              - before.get("exchange_messages", 0)),
        "mux_bundles": (after.get("exchange_mux_bundles", 0)
                        - before.get("exchange_mux_bundles", 0)),
        "rows_scanned": scans_after - scans_before,
    }


def run_prefix_sweep(seed, nodes, qs):
    stats = {"shared": {}}
    for q in qs:
        stats["shared"][q] = run_prefix_fleet(seed, nodes, q, shared=True)
    stats["unshared"] = run_prefix_fleet(seed, nodes, max(qs), shared=False)
    return stats


def check_prefix_sweep(stats, qs):
    """Per-query parity vs the sharing-off ablation + the <=1.5x bar."""
    unshared = stats["unshared"]
    reference = unshared["per_query"][0]
    assert len(reference) >= 2, "ablation reference produced too few epochs"
    for q, leg in stats["shared"].items():
        for i, epochs in enumerate(leg["per_query"]):
            twin = unshared["per_query"][i]
            assert set(epochs) == set(twin), (
                "prefix Q={} query {}: epochs {} != ablation twin {}".format(
                    q, i, sorted(epochs), sorted(twin))
            )
            for k in twin:
                assert _rows_match(epochs[k], twin[k]), (
                    "prefix Q={} query {}: epoch {} diverged from the "
                    "sharing-off twin ({!r} vs {!r})".format(
                        q, i, k, epochs[k], twin[k])
                )
    base = stats["shared"][min(qs)]
    big = stats["shared"][max(qs)]
    ratios = {
        "prefix_scan_ratio_100": (big["rows_scanned"]
                                  / max(1, base["rows_scanned"])),
        "prefix_xmsg_ratio_100": (big["exchange_messages"]
                                  / max(1, base["exchange_messages"])),
        "prefix_unshared_scan_x": (unshared["rows_scanned"]
                                   / max(1, big["rows_scanned"])),
    }
    # The headline bar: 100 DIFFERENT queries scan about one query's rows.
    assert ratios["prefix_scan_ratio_100"] <= 1.5, (
        "different-predicate fleet scanned {:.2f}x the single query".format(
            ratios["prefix_scan_ratio_100"])
    )
    assert unshared["rows_scanned"] > big["rows_scanned"], (
        "sharing-off ablation should pay per-query scans"
    )
    if max(qs) > 1:
        assert big["mux_bundles"] > 0, (
            "co-routed fleet exchanges never multiplexed"
        )
    return ratios


def _rows_match(a, b):
    """Row-set equality with float tolerance (merge order may differ
    between the spine and a private execution)."""
    if len(a) != len(b):
        return False
    for row_a, row_b in zip(a, b):
        if len(row_a) != len(row_b):
            return False
        for va, vb in zip(row_a, row_b):
            if isinstance(va, float) or isinstance(vb, float):
                if not math.isclose(va, vb, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif va != vb:
                return False
    return True


def run_sweep(seed, nodes, qs):
    stats = {"shared": {}, "unshared": {}}
    for q in qs:
        stats["shared"][q] = run_fleet(seed, nodes, q, shared=True)
    stats["unshared"][UNSHARED_Q] = run_fleet(
        seed, nodes, min(UNSHARED_Q, max(qs)), shared=False
    )
    stats["control_epochs"] = run_control(seed, nodes)
    return stats


def check_sweep(stats, qs):
    """Parity, the <=1.5x sharing bar, and the unshared cost exhibit."""
    shared = stats["shared"]
    unshared = stats["unshared"][UNSHARED_Q]

    # Every query in every shared fleet answers like its private twin.
    reference = unshared["per_query"][0]
    assert len(reference) >= 2, "reference produced too few epochs"
    for q, leg in shared.items():
        for i, epochs in enumerate(leg["per_query"]):
            assert set(epochs) == set(reference), (
                "Q={} query {}: epochs {} != reference {}".format(
                    q, i, sorted(epochs), sorted(reference))
            )
            for k in reference:
                assert _rows_match(epochs[k], reference[k]), (
                    "Q={} query {}: epoch {} diverged from the private "
                    "twin ({!r} vs {!r})".format(
                        q, i, k, epochs[k], reference[k])
                )
    for i, epochs in enumerate(unshared["per_query"]):
        for k in reference:
            assert _rows_match(epochs[k], reference[k]), (
                "unshared query {} disagrees with query 0".format(i)
            )

    # The control stayed off the spine and still answered.
    control = stats["control_epochs"]
    assert control and len(control) >= 2, "control query produced no epochs"
    assert all(rows for rows in control.values())

    base = shared[min(qs)]
    big = shared[100] if 100 in shared else shared[max(qs)]
    ratios = {
        "scan_ratio_100": big["rows_scanned"] / max(1, base["rows_scanned"]),
        "xmsg_ratio_100": (big["exchange_messages"]
                           / max(1, base["exchange_messages"])),
        "unshared_scan_x": (unshared["rows_scanned"]
                            / max(1, big["rows_scanned"])),
        "unshared_xmsg_x": (unshared["exchange_messages"]
                            / max(1, big["exchange_messages"])),
        # Fraction of in-tree combiner forwards that skipped the
        # O(log N) stable-route walk via the learned-owner hop cache.
        "hop_shortcut_frac": (big["tree_hop_shortcuts"]
                              / max(1, big["tree_forwards"])),
    }
    # The headline bar: 100 near-duplicates cost about one query.
    assert ratios["scan_ratio_100"] <= 1.5, (
        "shared fleet scanned {:.2f}x the single query".format(
            ratios["scan_ratio_100"])
    )
    assert ratios["xmsg_ratio_100"] <= 1.5, (
        "shared fleet moved {:.2f}x the exchange hops".format(
            ratios["xmsg_ratio_100"])
    )
    # And not sharing pays per query.
    assert unshared["rows_scanned"] > big["rows_scanned"]
    assert unshared["exchange_messages"] > big["exchange_messages"]
    return ratios


def prefix_exhibit(nodes, qs, stats, ratios):
    from benchmarks._harness import fmt_table

    text = ("Common-subplan sharing: one scan stage under Q "
            "different-predicate queries\n({} nodes, same geometry; every "
            "query its own WHERE threshold, own spine,\n own tail -- only "
            "the scan prefix is common)\n\n".format(nodes))
    rows = []
    for q in qs:
        leg = stats["shared"][q]
        rows.append(("staged/Q={}".format(q), q, leg["messages"],
                     leg["exchange_messages"], leg["mux_bundles"],
                     leg["rows_scanned"]))
    un = stats["unshared"]
    rows.append(("ablation/Q={}".format(un["queries"]), un["queries"],
                 un["messages"], un["exchange_messages"],
                 un["mux_bundles"], un["rows_scanned"]))
    text += fmt_table(
        ["config", "queries", "messages", "exch msgs (hops)",
         "mux bundles", "rows scanned"],
        rows,
    )
    text += (
        "\n\nper-query results: every staged query identical to its "
        "private (shared: False) twin\n"
        "{} different predicates vs 1 (staged): rows scanned {:.2f}x "
        "(bar: <= 1.5x), exchange hops {:.2f}x\n"
        "sharing off at Q={}: {:.2f}x the scans of the staged fleet\n"
        .format(
            max(qs), ratios["prefix_scan_ratio_100"],
            ratios["prefix_xmsg_ratio_100"], un["queries"],
            ratios["prefix_unshared_scan_x"])
    )
    return text


def exhibit(nodes, qs, stats, ratios):
    from benchmarks._harness import fmt_table

    text = ("Ext-I: near-duplicate standing queries on one subscription "
            "spine\n({} nodes, epoch {}s, window {}s, lifetime {}s, "
            "sample every {}s;\n {} surface forms cycled per fleet, all "
            "submitted the same instant)\n\n".format(
                nodes, int(EVERY), int(WINDOW), int(LIFETIME),
                int(SAMPLE_PERIOD), len(VARIANTS)))
    rows = []
    for q in qs:
        leg = stats["shared"][q]
        rows.append(("shared/Q={}".format(q), q, leg["messages"],
                     leg["exchange_messages"], leg["rows_scanned"]))
    un = stats["unshared"][UNSHARED_Q]
    rows.append(("unshared/Q={}".format(un["queries"]), un["queries"],
                 un["messages"], un["exchange_messages"],
                 un["rows_scanned"]))
    text += fmt_table(
        ["config", "queries", "messages", "exch msgs (hops)",
         "rows scanned"],
        rows,
    )
    text += (
        "\n\nper-query results: every shared query identical to its "
        "private twin\n"
        "100 near-duplicates vs 1 (shared): rows scanned {:.2f}x, "
        "exchange hops {:.2f}x (bar: <= 1.5x)\n"
        "not sharing at Q={}: {:.2f}x the scans, {:.2f}x the exchange "
        "hops of the shared fleet\n"
        "different-geometry control stayed off the spine and answered "
        "every epoch\n".format(
            ratios["scan_ratio_100"], ratios["xmsg_ratio_100"],
            un["queries"], ratios["unshared_scan_x"],
            ratios["unshared_xmsg_x"])
    )
    big = stats["shared"][100] if 100 in stats["shared"] else (
        stats["shared"][max(qs)])
    text += (
        "tree-edge hop cache (shared fleet): {} of {} combiner forwards "
        "went direct to the learned owner ({:.0%})\n".format(
            big["tree_hop_shortcuts"], big["tree_forwards"],
            ratios["hop_shortcut_frac"])
    )
    return text


def test_multi_query(benchmark):
    from benchmarks._harness import report, run_once

    def run():
        stats = run_sweep(seed=7, nodes=NODES, qs=QS)
        ratios = check_sweep(stats, QS)
        pstats = run_prefix_sweep(seed=7, nodes=NODES, qs=PREFIX_QS)
        ratios.update(check_prefix_sweep(pstats, PREFIX_QS))
        return stats, pstats, ratios

    stats, pstats, ratios = run_once(benchmark, run)
    report("multi_query",
           exhibit(NODES, QS, stats, ratios) + "\n"
           + prefix_exhibit(NODES, PREFIX_QS, pstats, ratios))
    for key, value in ratios.items():
        benchmark.extra_info[key] = round(value, 4)


def main(argv=None):
    import argparse

    from benchmarks._harness import begin

    begin("multi_query")

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="quick 8-node pass over Q in {1, 100} (same checks)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        nodes, qs, pqs = SMOKE_NODES, SMOKE_QS, SMOKE_PREFIX_QS
    else:
        nodes, qs, pqs = NODES, QS, PREFIX_QS
    stats = run_sweep(seed=7, nodes=nodes, qs=qs)
    ratios = check_sweep(stats, qs)
    print(exhibit(nodes, qs, stats, ratios))
    pstats = run_prefix_sweep(seed=7, nodes=nodes, qs=pqs)
    ratios.update(check_prefix_sweep(pstats, pqs))
    print(prefix_exhibit(nodes, pqs, pstats, ratios))
    from benchmarks._harness import write_metrics

    write_metrics("multi_query", {
        "parity": True,
        "scan_ratio_100": round(ratios["scan_ratio_100"], 4),
        "xmsg_ratio_100": round(ratios["xmsg_ratio_100"], 4),
        "unshared_scan_x": round(ratios["unshared_scan_x"], 4),
        "unshared_xmsg_x": round(ratios["unshared_xmsg_x"], 4),
        "hop_shortcut_frac": round(ratios["hop_shortcut_frac"], 4),
        "prefix_parity": True,
        "prefix_scan_ratio_100": round(ratios["prefix_scan_ratio_100"], 4),
        "prefix_xmsg_ratio_100": round(ratios["prefix_xmsg_ratio_100"], 4),
        "prefix_unshared_scan_x": round(ratios["prefix_unshared_scan_x"], 4),
    }, scale="smoke" if args.smoke else "full")
    print("ok: {} fleets share one spine with per-query parity; Q=100 "
          "costs {:.2f}x scans / {:.2f}x hops of Q=1".format(
              len(qs), ratios["scan_ratio_100"], ratios["xmsg_ratio_100"]))
    print("ok: {} different-predicate queries ride one scan stage at "
          "{:.2f}x one query's scans, answers identical to the "
          "sharing-off ablation".format(
              max(pqs), ratios["prefix_scan_ratio_100"]))
    return 0


if __name__ == "__main__":
    import pathlib

    # Run as a script, ``benchmarks`` is not a package on sys.path yet.
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    sys.exit(main())
