"""Ext-H: paned sliding-window aggregation vs from-scratch recomputation.

The fig1 continuous-sum workload with *overlapping* windows
(``WINDOW > EVERY``): every host samples its outbound rate into a
stream table; one standing continuous query aggregates the
network-wide SUM and sample COUNT. Two evaluation disciplines on
identical testbeds, swept over the ``WINDOW/EVERY`` ratio:

* ``scratch`` -- the pre-pane discipline (``paned=False`` ablation):
  the standing scan re-emits the window overlap every epoch and the
  group-by partial re-folds the whole window from raw rows;
* ``paned``   -- scans bucket each row once into a pane of width
  ``gcd(WINDOW, EVERY)``; the group-by partial keeps pane partials and
  slides an invertible running window (merge arriving panes, unmerge
  expired ones), so per-epoch folding is O(EVERY) rows instead of
  O(WINDOW).

A second exhibit covers the *overlapping-epoch* half of the feature: a
tree-aggregation plan whose final flush lands ~8.7s after each 6s
boundary used to force rebuild-per-epoch; it must now run as one
long-lived StandingExecution per node (two live epoch states) with
answers identical to polling the same window with one-shot queries.

Acceptance properties asserted here:

* per-epoch results are identical between paned and from-scratch for
  every swept ratio (and between standing-overlap and one-shot polls);
* at ``WINDOW/EVERY = 4`` the paned path folds >= 2x fewer rows into
  aggregation state per epoch;
* the overlapping-flush plan is planned standing+overlapping and every
  engine runs it as a StandingExecution end to end.

Run standalone with ``python benchmarks/bench_sliding_windows.py``
(``--smoke`` for a quick pass usable next to tier-1).
"""

import math
import sys

from repro.core.dataflow import StandingExecution
from repro.core.network import PierConfig, PierNetwork

NODES = 48
EVERY = 10.0
RATIOS = (1, 2, 4, 8)
LIFETIME = 80.0
SAMPLE_PERIOD = 2.0

SMOKE_NODES = 16
SMOKE_RATIOS = (1, 4)
SMOKE_LIFETIME = 60.0

OVERLAP_NODES = 12
OVERLAP_EVERY = 6.0
OVERLAP_LIFETIME = 48.0

SQL = (
    "SELECT SUM(rate_kbps) AS total_rate, COUNT(*) AS samples "
    "FROM node_stats EVERY {} SECONDS WINDOW {} SECONDS "
    "LIFETIME {} SECONDS"
)


def build_net(seed, nodes, retention):
    net = PierNetwork(nodes=nodes, seed=seed, config=PierConfig())
    net.create_stream_table(
        "node_stats", [("rate_kbps", "FLOAT")], window=retention
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


def run_config(seed, nodes, every, window, lifetime, paned):
    net = build_net(seed, nodes, retention=window + every)
    net.advance(window)  # fill the first window
    scans_before = sum(n.engine.rows_scanned for n in net.nodes.values())
    options = {} if paned else {"paned": False}
    results = []
    sql = SQL.format(int(every), int(window), int(lifetime))
    handle = net.submit_sql(sql, node=net.any_address(),
                            on_epoch=results.append, options=options)
    assert handle.plan.standing
    assert (handle.plan.pane is not None) == (paned and window > every)
    net.advance(lifetime + handle.plan.deadline + 5.0)
    folded = sum(n.engine.rows_aggregated for n in net.nodes.values())
    scanned = (sum(n.engine.rows_scanned for n in net.nodes.values())
               - scans_before)
    epochs = {r.epoch: sorted(r.rows) for r in results}
    return {
        "epochs": epochs,
        "num_epochs": len(results),
        "rows_folded": folded,
        "rows_scanned": scanned,
    }


def run_sweep(seed=7, nodes=NODES, every=EVERY, ratios=RATIOS,
              lifetime=LIFETIME):
    out = {}
    for ratio in ratios:
        window = ratio * every
        for paned in (False, True):
            label = "W/E={}/{}".format(ratio, "paned" if paned else "scratch")
            out[label] = run_config(seed, nodes, every, window, lifetime, paned)
    return out


def _rows_match(a, b):
    """Row-set equality with float tolerance: sliding a window with
    merge/unmerge reassociates float sums, which legitimately perturbs
    them by an ulp relative to a from-scratch refold."""
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


def check_sweep(stats, ratios):
    """Assert per-epoch parity and the fold reduction; returns ratios."""
    fold_ratios = {}
    for ratio in ratios:
        scratch = stats["W/E={}/scratch".format(ratio)]
        paned = stats["W/E={}/paned".format(ratio)]
        assert scratch["num_epochs"] >= 4, "workload produced too few epochs"
        assert set(paned["epochs"]) == set(scratch["epochs"]), (
            "W/E={}: paned produced different epochs".format(ratio)
        )
        for k in scratch["epochs"]:
            assert _rows_match(paned["epochs"][k], scratch["epochs"][k]), (
                "W/E={}: epoch {} results differ (scratch {!r} vs paned "
                "{!r})".format(ratio, k, scratch["epochs"][k],
                               paned["epochs"][k])
            )
        fold_ratios[ratio] = (
            scratch["rows_folded"] / max(1, paned["rows_folded"])
        )
    # The headline acceptance bar: at 4x overlap the paned path must do
    # at least 2x less per-epoch aggregation work.
    if 4 in ratios:
        assert fold_ratios[4] >= 2.0, (
            "W/E=4 fold reduction only {:.2f}x".format(fold_ratios[4])
        )
    return fold_ratios


def run_overlap_check(seed=31, nodes=OVERLAP_NODES, every=OVERLAP_EVERY,
                      lifetime=OVERLAP_LIFETIME):
    """The overlapping-flush plan must run standing, with polling parity."""
    outcomes = {}

    # Standing leg: one long-lived execution, ring width > 1.
    net = build_net(seed, nodes, retention=3 * every)
    net.advance(every)
    results = []
    sql = SQL.format(int(every), int(every), int(lifetime))
    handle = net.submit_sql(sql, node=net.any_address(),
                            on_epoch=results.append)
    assert handle.plan.standing and handle.plan.epoch_overlap > 1, (
        "overlapping-flush plan fell back to one-shot (or lost "
        "its overlap: ring width {})".format(handle.plan.epoch_overlap)
    )
    net.advance(1.5 * every)
    live = [
        n.engine.queries[handle.qid].execution
        for n in net.nodes.values()
        if handle.qid in n.engine.queries
    ]
    assert live, "no engine adopted the standing query"
    assert all(isinstance(e, StandingExecution) for e in live), (
        "engines ran the overlapping plan outside StandingExecution"
    )
    assert all(e is not None and e.overlap for e in live)
    net.advance(lifetime + handle.plan.deadline + 5.0 - 1.5 * every)
    outcomes["standing"] = {r.epoch: sorted(r.rows) for r in results}

    # Polling leg: a fresh one-shot windowed query at every boundary
    # (the discipline the retired rebuild path emulated).
    net = build_net(seed, nodes, retention=3 * every)
    net.advance(every)
    site = net.any_address()
    oneshot_sql = ("SELECT SUM(rate_kbps) AS total_rate, "
                   "COUNT(*) AS samples FROM node_stats "
                   "WINDOW {} SECONDS".format(int(every)))
    pending = []
    for k in range(1, int(lifetime / every) + 1):
        net.advance(every)
        poll_results = []
        poll = net.submit_sql(oneshot_sql, node=site,
                              on_epoch=poll_results.append)
        assert not poll.plan.standing
        pending.append((k, poll, poll_results))
    net.advance(max(p.plan.deadline for _k, p, _r in pending) + 5.0)
    outcomes["oneshot"] = {
        k: sorted(poll_results[-1].rows) if poll_results else []
        for k, _p, poll_results in pending
    }

    shared = set(outcomes["standing"]) & set(outcomes["oneshot"])
    assert len(shared) >= 4
    for k in shared:
        assert _rows_match(outcomes["standing"][k], outcomes["oneshot"][k]), (
            "overlap epoch {}: standing {!r} != oneshot {!r}".format(
                k, outcomes["standing"][k], outcomes["oneshot"][k])
        )
    return len(shared)


def exhibit(nodes, every, ratios, lifetime, stats, fold_ratios,
            overlap_epochs):
    from benchmarks._harness import fmt_table

    text = ("Ext-H: paned sliding-window aggregation vs from-scratch "
            "recomputation\n"
            "({} nodes, epoch {}s, lifetime {}s, sample every {}s; "
            "standing executions)\n\n".format(
                nodes, int(every), int(lifetime), int(SAMPLE_PERIOD)))
    rows = []
    for ratio in ratios:
        for variant in ("scratch", "paned"):
            out = stats["W/E={}/{}".format(ratio, variant)]
            per_epoch = out["rows_folded"] / max(1, out["num_epochs"])
            rows.append((
                "{}x/{}".format(ratio, variant), out["num_epochs"],
                out["rows_scanned"], out["rows_folded"], per_epoch,
            ))
    text += fmt_table(
        ["W/E / path", "epochs", "rows scanned", "rows folded",
         "folded/epoch"],
        rows,
    )
    text += ("\n\nper-epoch results: paned identical to from-scratch at "
             "every ratio\nrows-folded reduction: "
             + ", ".join("{}x overlap -> {:.2f}x".format(r, fold_ratios[r])
                         for r in ratios)
             + "\noverlapping-flush plan (tree aggregation, flush ~8.7s "
               "into a {}s period):\n  planned standing+overlapping, ran "
               "as one StandingExecution per node,\n  {} epochs identical "
               "to per-boundary one-shot polls\n".format(
                   int(OVERLAP_EVERY), overlap_epochs))
    return text


def test_sliding_windows(benchmark):
    from benchmarks._harness import report, run_once

    def run():
        stats = run_sweep()
        fold_ratios = check_sweep(stats, RATIOS)
        overlap_epochs = run_overlap_check()
        return stats, fold_ratios, overlap_epochs

    stats, fold_ratios, overlap_epochs = run_once(benchmark, run)
    report("sliding_windows",
           exhibit(NODES, EVERY, RATIOS, LIFETIME, stats, fold_ratios,
                   overlap_epochs))
    for label, out in stats.items():
        benchmark.extra_info[label] = {
            "rows_folded": out["rows_folded"],
            "rows_scanned": out["rows_scanned"],
            "epochs": out["num_epochs"],
        }


def main(argv=None):
    import argparse

    from benchmarks._harness import begin

    begin("sliding_windows")

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="quick 16-node pass (same parity + reduction checks)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        nodes, ratios, lifetime = SMOKE_NODES, SMOKE_RATIOS, SMOKE_LIFETIME
    else:
        nodes, ratios, lifetime = NODES, RATIOS, LIFETIME
    stats = run_sweep(nodes=nodes, ratios=ratios, lifetime=lifetime)
    fold_ratios = check_sweep(stats, ratios)
    overlap_epochs = run_overlap_check()
    text = exhibit(nodes, EVERY, ratios, lifetime, stats, fold_ratios,
                   overlap_epochs)
    print(text)
    from benchmarks._harness import write_metrics

    metrics = {"parity": True, "overlap_epochs": overlap_epochs}
    for ratio in ratios:
        metrics["fold_ratio_{}x".format(ratio)] = round(fold_ratios[ratio], 4)
    write_metrics("sliding_windows", metrics,
                  scale="smoke" if args.smoke else "full")
    if not args.smoke:
        from benchmarks._harness import report

        report("sliding_windows", text)
    print("ok: per-epoch parity holds; rows folded "
          + ", ".join("{:.2f}x at {}x".format(fold_ratios[r], r)
                      for r in ratios)
          + "; overlapping-flush plan ran standing")
    return 0


if __name__ == "__main__":
    import pathlib

    # Run as a script, ``benchmarks`` is not a package on sys.path yet.
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    sys.exit(main())
