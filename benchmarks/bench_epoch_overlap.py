"""Ext-H: the N-live-epoch ring vs per-epoch re-submission.

PR 4 retired the rebuild path: a standing execution keeps an *epoch
ring* of N live epoch states (``QueryPlan.epoch_overlap``, the ceiling
of the plan's flush horizon over its period), so continuous plans
whose flushes span several periods -- and bloom-join plans, whose
per-epoch filter round-trip used to force a rebuild -- run as one
long-lived ``StandingExecution`` per node.

Two sweeps quantify that against the polling discipline the rebuild
path emulated (a fresh one-shot query submitted at every epoch
boundary):

* **overlap sweep** -- the fig1-style continuous SUM/COUNT with the
  flush horizon pinned (~9.1s) and the epoch period swept so the
  horizon/period ratio covers {1, 2, 4, 8}: the planner widens the
  ring accordingly (N = ratio), and at every ratio the standing run
  must produce per-epoch answers identical to the polls while moving
  fewer messages per epoch (one broadcast and owner-cached exchanges
  vs per-poll re-submission). Rows scanned are reported, not
  asserted: with the fragment bounded by its retention a poll is
  charged what the horizon retains and a standing scan one examination
  per arrival plus one per row it reads, and neither side wins at
  every ratio -- the "standing scans fewer" reading this bench gated
  until PR 22 was the polled fragment growing with the run;
* **bloom join** -- a continuous Bloom-filtered equi-join run standing
  vs one-shot polls: identical rows every epoch, with the standing
  run strictly cheaper in messages.

Run standalone with ``python benchmarks/bench_epoch_overlap.py``
(``--smoke`` for a quick pass usable next to tier-1).
"""

import math
import sys
from unittest import mock

from repro.core import planner
from repro.core.network import PierNetwork

RATIOS = (1, 2, 4, 8)
NODES = 20
SAMPLE_PERIOD = 0.5
RETENTION = 20.0
BASE_EVERY = 10.0  # ratio r runs with period BASE_EVERY / r

SMOKE_RATIOS = (1, 2, 4)
SMOKE_NODES = 12

SQL = (
    "SELECT SUM(rate_kbps) AS total_rate, COUNT(*) AS samples "
    "FROM node_stats EVERY {} SECONDS WINDOW {} SECONDS "
    "LIFETIME {} SECONDS"
)

ONESHOT_SQL = (
    "SELECT SUM(rate_kbps) AS total_rate, COUNT(*) AS samples "
    "FROM node_stats WINDOW {} SECONDS"
)

BLOOM_SQL = (
    "SELECT r.k AS k, r.v AS v, s2.w AS w FROM r, s2 WHERE r.k = s2.k "
    "EVERY 12 SECONDS LIFETIME 36 SECONDS"
)

BLOOM_ONESHOT_SQL = (
    "SELECT r.k AS k, r.v AS v, s2.w AS w FROM r, s2 WHERE r.k = s2.k"
)


def _stretched_rehash():
    """Stretch the rehash transfer to the tree's so the flush horizon
    is ~9.1s (the tree plan's natural horizon): sweeping the period
    then sweeps the horizon/period ratio without touching the dataflow
    shape. Plans read the offset when compiled, so it must span every
    submit."""
    return mock.patch.object(planner, "REHASH_XFER", planner.TREE_XFER)


def build_net(seed, nodes):
    net = PierNetwork(nodes=nodes, seed=seed)
    net.create_stream_table(
        "node_stats", [("rate_kbps", "FLOAT")], window=RETENTION
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
        net.node(address).engine.set_timer(0.05, tick)
    return net


def run_overlap_standing(seed, nodes, ratio):
    every = BASE_EVERY / ratio
    lifetime = max(6.0 * every, 12.0)
    net = build_net(seed, nodes)
    net.advance(RETENTION)  # fill the retention deque for both paths
    before = dict(net.message_counters())
    scans_before = sum(n.engine.rows_scanned for n in net.nodes.values())
    results = []
    sql = SQL.format(every, every, lifetime)
    handle = net.submit_sql(sql, node=net.any_address(),
                            on_epoch=results.append,
                            options={"aggregation_tree": False})
    assert handle.plan.standing
    assert handle.plan.epoch_overlap == ratio, (
        "ratio {} planned a ring of {}".format(
            ratio, handle.plan.epoch_overlap)
    )
    net.advance(lifetime + handle.plan.deadline + 5.0)
    after = net.message_counters()
    scans_after = sum(n.engine.rows_scanned for n in net.nodes.values())
    epochs = {r.epoch: sorted(r.rows) for r in results}
    return {
        "epochs": epochs,
        "num_epochs": len(epochs),
        "ring": handle.plan.epoch_overlap,
        "messages": after.get("messages_sent", 0) - before.get("messages_sent", 0),
        "rows_scanned": scans_after - scans_before,
    }


def run_overlap_oneshot(seed, nodes, ratio):
    """Poll with a one-shot windowed query at every epoch boundary."""
    every = BASE_EVERY / ratio
    lifetime = max(6.0 * every, 12.0)
    net = build_net(seed, nodes)
    net.advance(RETENTION)
    before = dict(net.message_counters())
    scans_before = sum(n.engine.rows_scanned for n in net.nodes.values())
    site = net.any_address()
    sql = ONESHOT_SQL.format(every)
    pending = []
    for k in range(1, int(round(lifetime / every)) + 1):
        net.advance(every)
        results = []
        handle = net.submit_sql(sql, node=site, on_epoch=results.append,
                                options={"aggregation_tree": False})
        assert not handle.plan.standing
        pending.append((k, handle, results))
    net.advance(max(h.plan.deadline for _k, h, _r in pending) + 5.0)
    after = net.message_counters()
    scans_after = sum(n.engine.rows_scanned for n in net.nodes.values())
    epochs = {
        k: sorted(results[-1].rows) if results else []
        for k, _h, results in pending
    }
    return {
        "epochs": epochs,
        "num_epochs": len(epochs),
        "ring": 0,
        "messages": after.get("messages_sent", 0) - before.get("messages_sent", 0),
        "rows_scanned": scans_after - scans_before,
    }


def _rows_match(a, b):
    """Row-set equality with float tolerance (merge order differs)."""
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


def run_overlap_sweep(seed, nodes, ratios):
    stats = {}
    with _stretched_rehash():
        for ratio in ratios:
            stats[ratio] = {
                "standing": run_overlap_standing(seed, nodes, ratio),
                "oneshot": run_overlap_oneshot(seed, nodes, ratio),
            }
    return stats


def check_overlap_sweep(stats):
    """Parity everywhere; the message win, asserted at 4x overlap."""
    ratios_out = {}
    for ratio, pair in stats.items():
        standing, oneshot = pair["standing"], pair["oneshot"]
        assert oneshot["num_epochs"] >= 4, (
            "ratio {}: only {} epochs".format(ratio, oneshot["num_epochs"])
        )
        shared = set(standing["epochs"]) & set(oneshot["epochs"])
        assert len(shared) >= 4, (
            "ratio {}: paths shared only {} epochs".format(ratio, len(shared))
        )
        for k in shared:
            assert _rows_match(standing["epochs"][k], oneshot["epochs"][k]), (
                "ratio {}: epoch {} diverged (oneshot {!r} vs standing "
                "{!r})".format(ratio, k, oneshot["epochs"][k],
                               standing["epochs"][k])
            )
        ratios_out[ratio] = {
            "msgs_per_epoch": (
                (oneshot["messages"] / max(1, oneshot["num_epochs"]))
                / max(1.0, standing["messages"] / max(1, standing["num_epochs"]))
            ),
        }
    for ratio, pair in stats.items():
        if ratio < 4:
            continue
        standing, oneshot = pair["standing"], pair["oneshot"]
        # The acceptance bar: at >=4x overlap the ring must beat
        # per-epoch polling on messages, not just match it.
        per_epoch_standing = standing["messages"] / max(1, standing["num_epochs"])
        per_epoch_oneshot = oneshot["messages"] / max(1, oneshot["num_epochs"])
        assert per_epoch_standing < per_epoch_oneshot, (
            "ratio {}: standing moved {} msgs/epoch vs oneshot {}".format(
                ratio, per_epoch_standing, per_epoch_oneshot)
        )
    return ratios_out


# ----------------------------------------------------------------------
# Bloom-join leg
# ----------------------------------------------------------------------
def _bloom_net(seed, nodes):
    net = PierNetwork(nodes=nodes, seed=seed)
    net.create_local_table("r", [("k", "INT"), ("v", "INT")])
    net.create_local_table("s2", [("k", "INT"), ("w", "INT")])
    for i, address in enumerate(net.addresses()):
        net.insert(address, "r", [((i + j) % 8, 10 + j) for j in range(3)])
        net.insert(address, "s2", [((2 * i + j) % 16, 100 + j) for j in range(2)])
    return net


def run_bloom_standing(seed, nodes):
    net = _bloom_net(seed, nodes)
    before = dict(net.message_counters())
    results = []
    handle = net.submit_sql(BLOOM_SQL, node=net.any_address(),
                            on_epoch=results.append,
                            options={"join_strategy": "bloom"})
    assert handle.plan.standing
    assert handle.plan.ops_of_kind("bloom_stage")
    net.advance(36.0 + handle.plan.deadline + 5.0)
    after = net.message_counters()
    return {
        "epochs": {r.epoch: sorted(r.rows) for r in results},
        "num_epochs": len(results),
        "messages": after.get("messages_sent", 0) - before.get("messages_sent", 0),
    }


def run_bloom_oneshot(seed, nodes):
    net = _bloom_net(seed, nodes)
    before = dict(net.message_counters())
    site = net.any_address()
    pending = []
    for k in range(1, 4):  # the standing leg's 3 epochs, polled
        net.advance(12.0)
        results = []
        handle = net.submit_sql(BLOOM_ONESHOT_SQL, node=site,
                                on_epoch=results.append,
                                options={"join_strategy": "bloom"})
        assert not handle.plan.standing
        assert handle.plan.ops_of_kind("bloom_stage")
        pending.append((k, handle, results))
    net.advance(max(h.plan.deadline for _k, h, _r in pending) + 5.0)
    after = net.message_counters()
    return {
        "epochs": {
            k: sorted(results[-1].rows) if results else []
            for k, _h, results in pending
        },
        "num_epochs": len(pending),
        "messages": after.get("messages_sent", 0) - before.get("messages_sent", 0),
    }


def check_bloom(standing, oneshot):
    assert standing["num_epochs"] >= 3
    assert set(standing["epochs"]) == set(oneshot["epochs"])
    for k in standing["epochs"]:
        assert standing["epochs"][k] == oneshot["epochs"][k], (
            "bloom epoch {}: standing != oneshot".format(k)
        )
        assert standing["epochs"][k], "bloom join produced no rows"
    assert standing["messages"] < oneshot["messages"], (
        "standing bloom moved more messages ({} vs {})".format(
            standing["messages"], oneshot["messages"])
    )
    return oneshot["messages"] / max(1, standing["messages"])


def exhibit(nodes, stats, ratios_out, bloom_standing, bloom_oneshot,
            bloom_ratio):
    from benchmarks._harness import fmt_table

    text = "Ext-H: N-live-epoch ring vs per-epoch polling\n"
    text += ("({} nodes, flush horizon ~9.1s, period swept so "
             "horizon/period = ring width N;\n sample every {}s, "
             "retention {}s)\n\n".format(nodes, SAMPLE_PERIOD,
                                         int(RETENTION)))
    rows = []
    for ratio in sorted(stats):
        for label in ("oneshot", "standing"):
            out = stats[ratio][label]
            rows.append((
                "{}x/{}".format(ratio, label),
                out["ring"] if label == "standing" else "-",
                out["num_epochs"],
                out["messages"],
                round(out["messages"] / max(1, out["num_epochs"])),
                out["rows_scanned"],
            ))
    text += fmt_table(
        ["config", "ring N", "epochs", "messages", "msgs/epoch",
         "rows scanned"],
        rows,
    )
    text += ("\n\nper-epoch results: standing identical to one-shot polls "
             "at every ratio\n")
    for ratio in sorted(ratios_out):
        r = ratios_out[ratio]
        text += "ratio {}x: msgs/epoch reduction {:.2f}x\n".format(
            ratio, r["msgs_per_epoch"])
    text += (
        "\nbloom join (standing vs polling): identical rows every epoch, "
        "{:.2f}x fewer messages\n  oneshot {} msgs / standing {} msgs over "
        "{} epochs\n".format(
            bloom_ratio, bloom_oneshot["messages"],
            bloom_standing["messages"], bloom_standing["num_epochs"])
    )
    return text


def run_all(seed, nodes, ratios):
    stats = run_overlap_sweep(seed, nodes, ratios)
    ratios_out = check_overlap_sweep(stats)
    bloom_standing = run_bloom_standing(seed, nodes)
    bloom_oneshot = run_bloom_oneshot(seed, nodes)
    bloom_ratio = check_bloom(bloom_standing, bloom_oneshot)
    return stats, ratios_out, bloom_standing, bloom_oneshot, bloom_ratio


def test_epoch_overlap(benchmark):
    from benchmarks._harness import report, run_once

    def run():
        return run_all(seed=7, nodes=NODES, ratios=RATIOS)

    stats, ratios_out, bloom_s, bloom_o, bloom_ratio = run_once(benchmark, run)
    report("epoch_overlap",
           exhibit(NODES, stats, ratios_out, bloom_s, bloom_o, bloom_ratio))
    for ratio, out in ratios_out.items():
        benchmark.extra_info["ratio_{}".format(ratio)] = out
    benchmark.extra_info["bloom_msg_ratio"] = bloom_ratio


def main(argv=None):
    import argparse

    from benchmarks._harness import begin

    begin("epoch_overlap")

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="quick 12-node pass over ratios {1,2,4} (same checks)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        nodes, ratios = SMOKE_NODES, SMOKE_RATIOS
    else:
        nodes, ratios = NODES, RATIOS
    stats, ratios_out, bloom_s, bloom_o, bloom_ratio = run_all(
        seed=7, nodes=nodes, ratios=ratios
    )
    text = exhibit(nodes, stats, ratios_out, bloom_s, bloom_o, bloom_ratio)
    print(text)
    from benchmarks._harness import write_metrics

    metrics = {"parity": True,
               "bloom_msgs_ratio": round(bloom_ratio, 4)}
    for ratio, r in ratios_out.items():
        metrics["msgs_ratio_{}x".format(ratio)] = round(r["msgs_per_epoch"], 4)
    write_metrics("epoch_overlap", metrics,
                  scale="smoke" if args.smoke else "full")
    print("ok: ring parity holds at every ratio; bloom join standing is "
          "{:.2f}x cheaper in messages".format(bloom_ratio))
    return 0


if __name__ == "__main__":
    import pathlib

    # Run as a script, ``benchmarks`` is not a package on sys.path yet.
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    sys.exit(main())
