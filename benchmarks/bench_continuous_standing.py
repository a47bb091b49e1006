"""Ext-G: standing continuous execution vs per-epoch re-submission.

The fig1 continuous-sum workload (every host samples its outbound rate
into a stream table; one continuous query aggregates the network-wide
SUM and sample COUNT) run two ways on identical testbeds:

* ``oneshot``  -- the polling discipline the retired rebuild path
  emulated: at every epoch boundary a fresh one-shot windowed query is
  submitted, re-broadcast, re-planned, and re-scans the whole
  retention window under per-query exchange namespaces;
* ``standing`` -- one long-lived ``StandingExecution`` per node: scans
  follow the stream fragment's log with a cursor and push per-epoch
  deltas, exchange delivery is registered once per query under
  epoch-free namespaces, and epoch boundaries roll operators over via
  ``advance_epoch``.

Both the in-network aggregation-tree plan and the rehash ablation
(``aggregation_tree=False``) are swept; rehash-mode standing exchanges
additionally cache the learned rendezvous owner, replacing the O(log N)
recursive walk with a single hop per epoch.

Acceptance properties asserted here:

* per-epoch results are identical between the polling and standing
  runs (same seed, same workload, same answers epoch for epoch);
* standing moves strictly fewer messages in both exchange modes (no
  per-epoch plan broadcast, owner caches, stable tree rendezvous).

Rows scanned are reported, not asserted: a poll is charged the whole
retained fragment (2x the window here), a standing scan one
examination per arrival plus one per row it reads at a boundary, and
with retention bounded by the horizon the two land within a factor of
two of each other in either direction. The "standing scans fewer"
headline this bench carried until PR 22 measured a leak: the polled
fragment never evicted, so a poll's charge grew with the run length.

Run standalone with ``python benchmarks/bench_continuous_standing.py``
(``--smoke`` for a quick pass usable next to tier-1).
"""

import sys

from repro.core.network import PierConfig, PierNetwork

NODES = 48
EVERY = 10.0
WINDOW = 10.0
LIFETIME = 80.0
SAMPLE_PERIOD = 2.0

SMOKE_NODES = 24
SMOKE_LIFETIME = 40.0

SQL = (
    "SELECT SUM(rate_kbps) AS total_rate, COUNT(*) AS samples "
    "FROM node_stats EVERY {} SECONDS WINDOW {} SECONDS "
    "LIFETIME {} SECONDS"
)

ONESHOT_SQL = (
    "SELECT SUM(rate_kbps) AS total_rate, COUNT(*) AS samples "
    "FROM node_stats WINDOW {} SECONDS"
)


def build_net(seed, nodes):
    net = PierNetwork(nodes=nodes, seed=seed, config=PierConfig())
    # Retention horizon of 2x the query window, like the monitoring app:
    # every one-shot poll is charged the whole retained fragment.
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


def _measured(net, fn):
    """Run ``fn(site)`` and return its result plus message/scan deltas."""
    before = dict(net.message_counters())
    scans_before = sum(n.engine.rows_scanned for n in net.nodes.values())
    epochs = fn(net.any_address())
    after = net.message_counters()
    scans_after = sum(n.engine.rows_scanned for n in net.nodes.values())
    return {
        "epochs": epochs,
        "messages": after.get("messages_sent", 0) - before.get("messages_sent", 0),
        "bytes": after.get("bytes_sent", 0) - before.get("bytes_sent", 0),
        "exchange_messages": (after.get("exchange_messages", 0)
                              - before.get("exchange_messages", 0)),
        "rows_scanned": scans_after - scans_before,
        "num_epochs": len(epochs),
    }


def run_standing(seed, nodes, lifetime, tree):
    net = build_net(seed, nodes)
    net.advance(WINDOW)  # fill the first window

    def drive(site):
        results = []
        sql = SQL.format(int(EVERY), int(WINDOW), int(lifetime))
        handle = net.submit_sql(sql, node=site, on_epoch=results.append,
                                options={"aggregation_tree": tree})
        assert handle.plan.standing
        net.advance(lifetime + handle.plan.deadline + 5.0)
        return {r.epoch: sorted(r.rows) for r in results}

    return _measured(net, drive)


def run_oneshot(seed, nodes, lifetime, tree):
    """Poll with a fresh one-shot windowed query at every boundary.

    Each poll is submitted at the instant the standing run's epoch
    closes its window, so both disciplines sample identical data.
    """
    net = build_net(seed, nodes)
    net.advance(WINDOW)

    def drive(site):
        sql = ONESHOT_SQL.format(int(WINDOW))
        pending = []
        for k in range(1, int(lifetime / EVERY) + 1):
            net.advance(EVERY)
            results = []
            handle = net.submit_sql(sql, node=site,
                                    on_epoch=results.append,
                                    options={"aggregation_tree": tree})
            assert not handle.plan.standing
            pending.append((k, handle, results))
        net.advance(max(h.plan.deadline for _k, h, _r in pending) + 5.0)
        return {
            k: sorted(results[-1].rows) if results else []
            for k, _h, results in pending
        }

    return _measured(net, drive)


def run_sweep(seed=7, nodes=NODES, lifetime=LIFETIME):
    out = {}
    for tree in (True, False):
        mode = "tree" if tree else "rehash"
        out["{}/oneshot".format(mode)] = run_oneshot(seed, nodes, lifetime, tree)
        out["{}/standing".format(mode)] = run_standing(seed, nodes, lifetime, tree)
    return out


def _rows_match(a, b):
    """Row-set equality with float tolerance: aggregation merge order
    differs between the two paths (different rendezvous trees), which
    legitimately perturbs float sums by an ulp."""
    import math

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


def check_sweep(stats):
    """Assert parity and the message reduction; returns ratio dict."""
    ratios = {}
    for mode in ("tree", "rehash"):
        oneshot = stats["{}/oneshot".format(mode)]
        standing = stats["{}/standing".format(mode)]
        assert oneshot["num_epochs"] >= 4, "workload produced too few epochs"
        assert set(standing["epochs"]) == set(oneshot["epochs"]), (
            "{}: standing produced different epochs".format(mode)
        )
        for k in oneshot["epochs"]:
            assert _rows_match(standing["epochs"][k], oneshot["epochs"][k]), (
                "{}: epoch {} results differ (oneshot {!r} vs standing "
                "{!r})".format(mode, k, oneshot["epochs"][k],
                               standing["epochs"][k])
            )
        assert standing["messages"] < oneshot["messages"], (
            "{}: standing did not reduce messages".format(mode)
        )
        ratios["{}_msgs".format(mode)] = (
            oneshot["messages"] / max(1, standing["messages"])
        )
    return ratios


def exhibit(nodes, lifetime, stats, ratios):
    from benchmarks._harness import fmt_table

    text = "Ext-G: standing execution vs per-epoch polling (fig1 continuous sum)\n"
    text += "({} nodes, epoch {}s, window {}s, lifetime {}s, sample every {}s)\n\n".format(
        nodes, int(EVERY), int(WINDOW), int(lifetime), int(SAMPLE_PERIOD)
    )
    rows = []
    for label in ("tree/oneshot", "tree/standing",
                  "rehash/oneshot", "rehash/standing"):
        out = stats[label]
        rows.append((
            label, out["num_epochs"], out["messages"], out["bytes"],
            out["exchange_messages"], out["rows_scanned"],
        ))
    text += fmt_table(
        ["config", "epochs", "messages", "bytes", "exch msgs (hops)",
         "rows scanned"],
        rows,
    )
    text += (
        "\n\nper-epoch results: standing identical to one-shot polling in "
        "both modes\n"
        "messages_sent reduction: tree {:.2f}x, rehash {:.2f}x "
        "(one broadcast + one cursor replace per-epoch re-submission)\n".format(
            ratios["tree_msgs"], ratios["rehash_msgs"],
        )
    )
    return text


def test_continuous_standing(benchmark):
    from benchmarks._harness import report, run_once

    def run():
        stats = run_sweep()
        ratios = check_sweep(stats)
        return stats, ratios

    stats, ratios = run_once(benchmark, run)
    report("continuous_standing", exhibit(NODES, LIFETIME, stats, ratios))
    for label, out in stats.items():
        benchmark.extra_info[label] = {
            "messages": out["messages"],
            "rows_scanned": out["rows_scanned"],
            "epochs": out["num_epochs"],
        }


def main(argv=None):
    import argparse

    from benchmarks._harness import begin

    begin("continuous_standing")

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="quick 24-node pass (same parity + message checks)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        nodes, lifetime = SMOKE_NODES, SMOKE_LIFETIME
    else:
        nodes, lifetime = NODES, LIFETIME
    stats = run_sweep(nodes=nodes, lifetime=lifetime)
    ratios = check_sweep(stats)
    print(exhibit(nodes, lifetime, stats, ratios))
    from benchmarks._harness import write_metrics

    write_metrics("continuous_standing", {
        "parity": True,
        "tree_msgs_ratio": round(ratios["tree_msgs"], 4),
        "rehash_msgs_ratio": round(ratios["rehash_msgs"], 4),
    }, scale="smoke" if args.smoke else "full")
    print("ok: per-epoch parity holds; messages {:.2f}x/{:.2f}x "
          "(tree/rehash)".format(
              ratios["tree_msgs"], ratios["rehash_msgs"]))
    return 0


if __name__ == "__main__":
    import pathlib

    # Run as a script, ``benchmarks`` is not a package on sys.path yet.
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    sys.exit(main())
