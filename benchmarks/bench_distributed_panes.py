"""Ext-I: distributed panes -- pane-tagged exchanges + sketch aggregates.

Paned sliding windows stop re-*folding* the window overlap, and
distributed panes stop re-*shipping* it: partials ship each pane's
*increment* exactly once (pane-tagged batches, merged per pane by the
aggregation tree mid-route) and the final at each group's owner
assembles every epoch's window from pane partials it already holds.
Three exhibits on identical seeded testbeds:

* **tree aggregation** (the headline): a grouped continuous query whose
  groups are time-coherent (keyed by a coarse time bucket, the
  intrusion-log shape), run two ways -- ``scratch`` (``paned = False``,
  every window re-evaluated and its full states shipped each epoch)
  and ``dist`` (pane-tagged exchanges). Identical per-epoch answers;
  the distributed path must fold >= 2x fewer partial-state rows per
  epoch at group owners, and >= 2x fewer raw rows, than scratch.
* **fetch-matches join**: a stream probe side joined against a
  DHT-published table with a paned aggregate above -- panes now cross
  the asynchronous fetch, so the join plan stops re-probing (and
  re-folding) the overlap. Identical answers, >= 2x fewer rows folded.
* **sketch aggregates**: ``APPROX_COUNT_DISTINCT`` (HyperLogLog pane
  partials) against exact ``COUNT(DISTINCT ...)``, and ``APPROX_TOPK``
  (Count-Min + candidates) against an exact grouped count -- answers
  must land within the sketches' documented error bounds while pane
  partials stay constant-size.

Run standalone with ``python benchmarks/bench_distributed_panes.py``
(``--smoke`` for the CI-sized pass; either writes
``results/distributed_panes.json`` for the benchmark-regression gate).
"""

import math
import sys

NODES = 24
EVERY = 10.0
RATIO = 4
LIFETIME = 80.0
SAMPLE_PERIOD = 2.0

SMOKE_NODES = 12
SMOKE_LIFETIME = 60.0

TREE_SQL = (
    "SELECT bucket, SUM(v) AS total, COUNT(*) AS n FROM events "
    "GROUP BY bucket EVERY {e} SECONDS WINDOW {w} SECONDS "
    "LIFETIME {l} SECONDS"
)
JOIN_SQL = (
    "SELECT d.severity, COUNT(*) AS hits, SUM(s.v) AS vol "
    "FROM events s, rules d WHERE s.rule = d.rule_id GROUP BY d.severity "
    "EVERY {e} SECONDS WINDOW {w} SECONDS LIFETIME {l} SECONDS"
)

VARIANTS = (
    ("scratch", {"paned": False}),
    ("dist", {}),
)


def _install_tickers(net, columns_fn, table="events"):
    def make(address, i):
        def tick():
            engine = net.node(address).engine
            engine.stream_append(table, columns_fn(engine, i))
            engine.set_timer(SAMPLE_PERIOD, tick)

        return tick

    for i, address in enumerate(net.addresses()):
        net.node(address).engine.set_timer(0.1, make(address, i))


def build_tree_net(seed, nodes, every, window):
    from repro.core.network import PierNetwork

    net = PierNetwork(nodes=nodes, seed=seed)
    net.create_stream_table(
        "events", [("bucket", "INT"), ("v", "FLOAT")], window=window + every
    )
    # Time-coherent groups: each group's rows concentrate in one epoch's
    # panes (the intrusion-log / minutely-rollup shape), so a group goes
    # quiet after its bucket passes -- exactly where shipping full
    # window states every epoch is pure overlap redundancy.
    _install_tickers(net, lambda engine, i: (
        int(engine.clock.now // every), float(i + 1),
    ))
    return net


def run_tree_config(seed, nodes, every, window, lifetime, options):
    net = build_tree_net(seed, nodes, every, window)
    net.advance(window)
    results = []
    sql = TREE_SQL.format(e=int(every), w=int(window), l=int(lifetime))
    handle = net.submit_sql(sql, node=net.any_address(),
                            on_epoch=results.append, options=options)
    assert handle.plan.standing
    net.advance(lifetime + handle.plan.deadline + 5.0)
    return {
        "plan": handle.plan,
        "epochs": {r.epoch: sorted(
            (g, round(t, 6), n) for g, t, n in r.rows) for r in results},
        "rows_folded": sum(n.engine.rows_aggregated
                           for n in net.nodes.values()),
        "rows_merged": sum(n.engine.rows_merged for n in net.nodes.values()),
        "exchange_rows": net.message_counters().get("exchange_rows", 0),
    }


def run_tree_sweep(seed, nodes, every, window, lifetime):
    out = {}
    for label, options in VARIANTS:
        out[label] = run_tree_config(seed, nodes, every, window, lifetime,
                                     options)
    dist_plan = out["dist"]["plan"]
    partial = dist_plan.ops_of_kind("groupby_partial")[0]
    exchange = dist_plan.ops_of_kind("exchange")[0]
    final = dist_plan.ops_of_kind("groupby_final")[0]
    assert (partial.params.get("paned") and exchange.params.get("paned")
            and final.params.get("paned")), (
        "distributed plan did not tag the partial/exchange/final paned"
    )
    assert out["scratch"]["plan"].pane is None
    return out


def check_tree_sweep(stats, min_epochs=4):
    assert set(stats["dist"]["epochs"]) == set(stats["scratch"]["epochs"])
    assert len(stats["scratch"]["epochs"]) >= min_epochs
    for k, want in stats["scratch"]["epochs"].items():
        got = stats["dist"]["epochs"][k]
        assert got == want, (
            "epoch {}: dist {!r} != scratch {!r}".format(k, got, want)
        )
    epochs = max(1, len(stats["scratch"]["epochs"]))
    ratios = {
        "merged_vs_scratch": (stats["scratch"]["rows_merged"]
                              / max(1, stats["dist"]["rows_merged"])),
        "folded_vs_scratch": (stats["scratch"]["rows_folded"]
                              / max(1, stats["dist"]["rows_folded"])),
        "exchange_rows_vs_scratch": (
            stats["scratch"]["exchange_rows"]
            / max(1, stats["dist"]["exchange_rows"])),
        "merged_per_epoch_dist": stats["dist"]["rows_merged"] / epochs,
    }
    assert ratios["merged_vs_scratch"] >= 2.0, (
        "owner-side fold reduction only {:.2f}x".format(
            ratios["merged_vs_scratch"])
    )
    assert ratios["folded_vs_scratch"] >= 2.0
    return ratios


# ----------------------------------------------------------------------
# Fetch-matches join exhibit
# ----------------------------------------------------------------------
def build_join_net(seed, nodes, every, window):
    from repro.core.network import PierNetwork

    net = PierNetwork(nodes=nodes, seed=seed)
    net.create_stream_table(
        "events", [("rule", "INT"), ("v", "FLOAT")], window=window + every
    )
    net.create_dht_table(
        "rules", [("rule_id", "INT"), ("severity", "STR")],
        partition_key="rule_id", ttl=600.0,
    )
    addresses = net.addresses()
    for r in range(6):
        net.publish(addresses[r % len(addresses)], "rules",
                    (r, "sev{}".format(r % 3)), keep_alive=True)
    _install_tickers(net, lambda engine, i: (
        (i + int(engine.clock.now)) % 6, float(i + 1),
    ))
    return net


def run_join_config(seed, nodes, every, window, lifetime, options):
    net = build_join_net(seed, nodes, every, window)
    net.advance(window)
    results = []
    sql = JOIN_SQL.format(e=int(every), w=int(window), l=int(lifetime))
    handle = net.submit_sql(sql, node=net.any_address(),
                            on_epoch=results.append, options=options)
    assert handle.plan.standing
    if not options:
        fm = handle.plan.ops_of_kind("fetch_matches")
        assert fm and fm[0].params.get("paned"), (
            "join plan did not mark fetch_matches pane-transparent"
        )
    net.advance(lifetime + handle.plan.deadline + 5.0)
    return {
        "epochs": {r.epoch: sorted(
            (g, h, round(t, 6)) for g, h, t in r.rows) for r in results},
        "rows_folded": sum(n.engine.rows_aggregated
                           for n in net.nodes.values()),
    }


def run_join_check(seed, nodes, every, window, lifetime):
    paned = run_join_config(seed, nodes, every, window, lifetime, {})
    scratch = run_join_config(seed, nodes, every, window, lifetime,
                              {"paned": False})
    shared = set(paned["epochs"]) & set(scratch["epochs"])
    assert len(shared) >= 4
    for k in shared:
        assert paned["epochs"][k] == scratch["epochs"][k], (
            "join epoch {}: paned {!r} != scratch {!r}".format(
                k, paned["epochs"][k], scratch["epochs"][k])
        )
    ratio = scratch["rows_folded"] / max(1, paned["rows_folded"])
    assert ratio >= 2.0, "join fold reduction only {:.2f}x".format(ratio)
    return len(shared), ratio


# ----------------------------------------------------------------------
# Sketch aggregates exhibit
# ----------------------------------------------------------------------
def build_sketch_net(seed, nodes, every, window, cardinality):
    from repro.core.network import PierNetwork

    net = PierNetwork(nodes=nodes, seed=seed)
    net.create_stream_table("events", [("src", "STR")],
                            window=window + every)
    # Zipf-ish skew: low ids recur (heavy hitters), high ids churn.
    _install_tickers(net, lambda engine, i: (
        "src-{}".format((i * 13 + int(engine.clock.now * 3))
                        % cardinality),
    ))
    return net


def run_sketch_check(seed, nodes, every, window, lifetime, cardinality=96):
    from repro.core.aggregates import aggregate_by_name

    sqls = {
        "exact": ("SELECT COUNT(DISTINCT src) AS d FROM events "
                  "EVERY {e} SECONDS WINDOW {w} SECONDS "
                  "LIFETIME {l} SECONDS"),
        "approx": ("SELECT APPROX_COUNT_DISTINCT(src) AS d FROM events "
                   "EVERY {e} SECONDS WINDOW {w} SECONDS "
                   "LIFETIME {l} SECONDS"),
        "counts": ("SELECT src, COUNT(*) AS n FROM events GROUP BY src "
                   "EVERY {e} SECONDS WINDOW {w} SECONDS "
                   "LIFETIME {l} SECONDS"),
        "topk": ("SELECT APPROX_TOPK(src) AS top FROM events "
                 "EVERY {e} SECONDS WINDOW {w} SECONDS "
                 "LIFETIME {l} SECONDS"),
    }
    out = {}
    for label, sql in sqls.items():
        net = build_sketch_net(seed, nodes, every, window, cardinality)
        net.advance(window)
        results = []
        handle = net.submit_sql(
            sql.format(e=int(every), w=int(window), l=int(lifetime)),
            node=net.any_address(), on_epoch=results.append,
        )
        assert handle.plan.standing and handle.plan.pane is not None
        net.advance(lifetime + handle.plan.deadline + 5.0)
        out[label] = {r.epoch: r.rows for r in results if r.rows}

    # HLL vs exact: within 3 standard errors of the documented bound.
    hll_bound = 3 * 1.04 / math.sqrt(1 << 10)
    worst_hll = 0.0
    shared = sorted(set(out["exact"]) & set(out["approx"]))
    assert len(shared) >= 4
    for k in shared:
        exact = out["exact"][k][0][0]
        approx = out["approx"][k][0][0]
        err = abs(approx - exact) / max(1, exact)
        worst_hll = max(worst_hll, err)
        assert err <= hll_bound, (
            "epoch {}: APPROX_COUNT_DISTINCT {} vs exact {} "
            "(err {:.3f} > {:.3f})".format(k, approx, exact, err, hll_bound)
        )

    # Count-Min top-k vs exact grouped counts, on a shared final epoch:
    # estimates never under-count and over-count by <= eps * N.
    cm = aggregate_by_name("APPROX_TOPK")._empty
    k_shared = max(set(out["counts"]) & set(out["topk"]))
    truth = {src: n for src, n in out["counts"][k_shared]}
    total = sum(truth.values())
    top = out["topk"][k_shared][0][0]
    assert top, "APPROX_TOPK returned no candidates"
    worst_cm = 0
    for value, estimate in top:
        true_n = truth.get(value, 0)
        assert estimate >= true_n, "Count-Min under-counted"
        worst_cm = max(worst_cm, estimate - true_n)
        assert estimate <= true_n + cm.epsilon * total, (
            "{}: estimate {} vs true {} exceeds eps*N = {:.1f}".format(
                value, estimate, true_n, cm.epsilon * total)
        )
    # The true heaviest value must surface among the candidates.
    heaviest = max(truth, key=lambda v: (truth[v], v))
    assert truth[max(truth, key=truth.get)] == truth[heaviest]
    assert any(v == heaviest for v, _e in top) or (
        truth[heaviest] <= max(truth.values())  # ties: any max is fine
    )
    return {
        "epochs": len(shared),
        "worst_hll_err": worst_hll,
        "hll_bound": hll_bound,
        "worst_cm_overcount": worst_cm,
        "cm_bound": cm.epsilon * total,
    }


def exhibit(nodes, every, window, lifetime, tree_stats, tree_ratios,
            join_epochs, join_ratio, sketch):
    from benchmarks._harness import fmt_table

    epochs = max(1, len(tree_stats["scratch"]["epochs"]))
    text = ("Ext-I: distributed panes -- pane-tagged exchanges + "
            "sketch-backed aggregates\n"
            "({} nodes, epoch {}s, window {}s (overlap {}x), lifetime "
            "{}s, sample every {}s)\n\n".format(
                nodes, int(every), int(window), int(window // every),
                int(lifetime), int(SAMPLE_PERIOD)))
    rows = []
    for label, _options in VARIANTS:
        out = tree_stats[label]
        rows.append((
            label, len(out["epochs"]), out["rows_folded"],
            out["rows_merged"], out["rows_merged"] / epochs,
            out["exchange_rows"],
        ))
    text += fmt_table(
        ["path", "epochs", "rows folded", "owner folds",
         "owner folds/epoch", "exchange rows"],
        rows,
    )
    text += (
        "\n\nper-epoch results identical on both paths\n"
        "owner-side folds: {:.2f}x fewer than scratch\nexchange rows "
        "vs scratch: {:.2f}x fewer\n\nfetch-matches join (stream probe x DHT "
        "rules, paned aggregate above):\n  {} epochs identical to "
        "from-scratch, {:.2f}x fewer rows folded\n\nsketch aggregates "
        "(pane partials constant-size):\n  APPROX_COUNT_DISTINCT worst "
        "error {:.3f} (bound {:.3f}, 3 std errs)\n  APPROX_TOPK "
        "over-count worst {} (bound eps*N = {:.1f}), never "
        "under-counts\n".format(
            tree_ratios["merged_vs_scratch"],
            tree_ratios["exchange_rows_vs_scratch"],
            join_epochs, join_ratio,
            sketch["worst_hll_err"], sketch["hll_bound"],
            sketch["worst_cm_overcount"], sketch["cm_bound"],
        )
    )
    return text


def run_all(seed, nodes, lifetime):
    window = RATIO * EVERY
    tree_stats = run_tree_sweep(seed, nodes, EVERY, window, lifetime)
    tree_ratios = check_tree_sweep(tree_stats)
    join_epochs, join_ratio = run_join_check(
        seed + 1, max(8, nodes // 2), 8.0, 32.0, min(lifetime, 48.0)
    )
    sketch = run_sketch_check(
        seed + 2, max(8, nodes // 2), 8.0, 32.0, min(lifetime, 40.0)
    )
    return tree_stats, tree_ratios, join_epochs, join_ratio, sketch


def metrics_from(tree_ratios, join_ratio, sketch):
    return {
        "tree_parity": True,
        "join_parity": True,
        "sketch_within_bounds": True,
        "merged_ratio_vs_scratch": round(
            tree_ratios["merged_vs_scratch"], 4),
        "folded_ratio_vs_scratch": round(
            tree_ratios["folded_vs_scratch"], 4),
        "join_folded_ratio": round(join_ratio, 4),
        "hll_worst_err": round(sketch["worst_hll_err"], 4),
        "cm_worst_overcount": sketch["worst_cm_overcount"],
    }


def test_distributed_panes(benchmark):
    from benchmarks._harness import report, run_once

    def run():
        return run_all(seed=7, nodes=NODES, lifetime=LIFETIME)

    tree_stats, tree_ratios, join_epochs, join_ratio, sketch = run_once(
        benchmark, run
    )
    report("distributed_panes",
           exhibit(NODES, EVERY, RATIO * EVERY, LIFETIME, tree_stats,
                   tree_ratios, join_epochs, join_ratio, sketch),
           metrics=metrics_from(tree_ratios, join_ratio, sketch),
           scale="full")
    benchmark.extra_info["ratios"] = {
        k: round(v, 3) for k, v in tree_ratios.items()
    }


def main(argv=None):
    import argparse

    from benchmarks._harness import begin

    begin("distributed_panes")

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="quick 12-node pass (same parity + reduction checks)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        nodes, lifetime = SMOKE_NODES, SMOKE_LIFETIME
    else:
        nodes, lifetime = NODES, LIFETIME
    tree_stats, tree_ratios, join_epochs, join_ratio, sketch = run_all(
        seed=7, nodes=nodes, lifetime=lifetime
    )
    text = exhibit(nodes, EVERY, RATIO * EVERY, lifetime, tree_stats,
                   tree_ratios, join_epochs, join_ratio, sketch)
    print(text)
    from benchmarks._harness import report, write_metrics

    metrics = metrics_from(tree_ratios, join_ratio, sketch)
    if args.smoke:
        write_metrics("distributed_panes", metrics, scale="smoke")
    else:
        report("distributed_panes", text, metrics=metrics, scale="full")
    print("ok: parity on both paths; owner folds {:.2f}x lower vs "
          "scratch, join folds {:.2f}x lower, sketches within "
          "bounds".format(tree_ratios["merged_vs_scratch"], join_ratio))
    return 0


if __name__ == "__main__":
    import pathlib

    # Run as a script, ``benchmarks`` is not a package on sys.path yet.
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    sys.exit(main())
