"""Ext-K: region-aware execution -- proximity routing + regional trees.

The wide area is not flat: a PlanetLab-style deployment clusters into
regions (data centers, continents) where an intra-region hop costs
~1-5 ms and a backbone hop costs ~80-150 ms. PIER's overlay and its
aggregation trees are oblivious to that structure, so a standing
grouped aggregate ships every node's partial across the backbone every
epoch. This exhibit sweeps one paned standing group-by over a
4-region testbed under three disciplines on the *same* seeded
topology:

* **flat** -- the region-oblivious baseline: random fingers, single-
  level aggregation trees;
* **prox** -- proximity-biased neighbor selection (same-region
  candidates win finger/successor slots when they do not lengthen the
  ID-space stride materially), so the O(log N) walk does most of its
  hops inside the cheap region;
* **regional** -- proximity routing plus two-level aggregation trees:
  partials rendezvous at a per-region combiner first, and each region
  ships ONE combined partial per group per flush across the backbone
  toward the global owner.

Three claims, all gated: per-epoch answers are identical across the
three paths (the optimization must be invisible in the result);
``regional`` moves >= 3x fewer cross-region exchange bytes per epoch
than ``flat``; and its p95 epoch-completion lag (last partial arrival
behind the epoch boundary, at the query site) is no worse.

A fourth leg cuts one region off the backbone mid-run (a live
partition: nodes keep their state, unlike a crash) and heals it two
epochs later. During the cut the region's increments terminal-deliver
at in-region pseudo-owners whose paned finals retain them
(``PaneWindow.retain_panes``); after the heal those finals keep
flushing, so the query site's per-node replace-and-merge
reconciliation recovers the EXACT answer -- post-heal epochs,
including windows spanning the partition, must match a no-failure
reference run bit for bit.

Run standalone with ``python benchmarks/bench_geo_regions.py``
(``--smoke`` for the CI-sized pass; either writes
``results/geo_regions.json`` for the benchmark-regression gate).
"""

import sys

REGIONS = ("us", "eu", "ap", "sa")
NODES_PER_REGION = 6
EVERY = 10.0
RATIO = 4
LIFETIME = 80.0
SAMPLE_PERIOD = 2.0

SMOKE_NODES_PER_REGION = 3
SMOKE_LIFETIME = 60.0

SQL = (
    "SELECT bucket, SUM(v) AS total, COUNT(*) AS n FROM events "
    "GROUP BY bucket EVERY {e} SECONDS WINDOW {w} SECONDS "
    "LIFETIME {l} SECONDS"
)

VARIANTS = ("flat", "prox", "regional")


def region_map(per_region):
    return {
        "{}{}".format(region, i): region
        for region in REGIONS for i in range(per_region)
    }


def make_config(variant):
    from repro.core.engine import EngineConfig
    from repro.core.network import PierConfig
    from repro.dht.config import DhtConfig

    return PierConfig(
        dht=DhtConfig(proximity_routing=(variant != "flat")),
        engine=EngineConfig(regional_trees=(variant == "regional")),
    )


def build_net(seed, per_region, variant, window):
    from repro.core.network import PierNetwork

    net = PierNetwork(seed=seed, config=make_config(variant),
                      regions=region_map(per_region))
    net.create_stream_table(
        "events", [("bucket", "INT"), ("v", "FLOAT")],
        window=window + EVERY,
    )

    def make_tick(address, i):
        def tick():
            engine = net.node(address).engine
            engine.stream_append("events", (
                int(engine.clock.now // EVERY) % 4, float(i + 1),
            ))
            engine.set_timer(SAMPLE_PERIOD, tick)

        return tick

    for i, address in enumerate(net.addresses()):
        net.node(address).engine.set_timer(0.1, make_tick(address, i))
    return net


def run_leg(seed, per_region, variant, lifetime, disturb=None):
    """One standing query under one discipline; returns epoch answers
    plus backbone-traffic and completion-lag measurements.

    ``disturb`` optionally maps the run's t0 to a schedule of
    (at, callback_name, region) partition events applied mid-run.
    """
    from repro.dht.messages import parts_of

    window = RATIO * EVERY
    net = build_net(seed, per_region, variant, window)
    net.advance(window)
    net.reset_counters()

    site = net.any_address()  # first address: region "us"
    results = []
    handle = net.submit_sql(
        SQL.format(e=int(EVERY), w=int(window), l=int(lifetime)),
        node=site, on_epoch=results.append,
    )
    assert handle.plan.standing and handle.plan.pane is not None
    exchange = handle.plan.ops_of_kind("exchange")[0]
    assert exchange.params["mode"] == "tree"

    # Per-epoch completion lag: how far behind its epoch boundary the
    # epoch's aggregation dataflow QUIESCED -- the last delivery of an
    # exchange increment tagged with that epoch, anywhere in the
    # network. The site-side close is a fixed deadline timer, so the
    # observable latency win of locality lives here: a flat tree's
    # partials chain multi-hop backbone walks and per-hop combiner
    # holds, a region-local tree settles after one intra-region hold
    # and a single (often hop-shortcut) backbone send.
    t0 = handle.t0
    arrivals = {}

    def deliver(src, dst, wire):
        for part in parts_of(wire):
            inner = getattr(part, "payload", None)
            if isinstance(inner, dict) and inner.get("op") in (
                    "deliver", "deliver_batch"):
                epoch = inner.get("epoch")
                if epoch is not None:
                    arrivals[epoch] = net.now

    net.net.on_deliver = deliver

    if disturb is not None:
        for at, action, region in disturb(t0):
            net.clock.schedule(
                max(0.0, at - net.now), getattr(net, action), region
            )

    net.advance(lifetime + handle.plan.deadline + 5.0)
    counters = net.message_counters()
    epochs = {
        r.epoch: sorted((g, round(t, 6), n) for g, t, n in r.rows)
        for r in results
    }
    # Exchange payloads tag the execution's absolute epoch index;
    # normalize each last-arrival against its own epoch boundary (the
    # first shipped epoch opened at t0, successors every EVERY).
    e0 = min(arrivals) if arrivals else 0
    lags = {
        e: at - (t0 + (e - e0) * EVERY) for e, at in arrivals.items()
    }
    return {
        "epochs": epochs,
        "lags": lags,
        "deadline": handle.plan.deadline,
        "cross_bytes": counters.get("exchange_cross_region_bytes", 0),
        "cross_msgs": counters.get("exchange_cross_region_messages", 0),
        "backbone_bytes": counters.get("cross_region_bytes", 0),
        "partition_drops": counters.get("messages_partitioned", 0),
    }


def percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


def run_sweep(seed, per_region, lifetime):
    out = {v: run_leg(seed, per_region, v, lifetime) for v in VARIANTS}

    # Claim 1: exact answer parity, every epoch, every discipline.
    base = out["flat"]["epochs"]
    assert len(base) >= 5
    for variant in ("prox", "regional"):
        got = out[variant]["epochs"]
        assert set(got) == set(base)
        for k, want in base.items():
            assert got[k] == want, (
                "epoch {}: {} {!r} != flat {!r}".format(
                    k, variant, got[k], want)
            )

    epochs = max(1, len(base))
    per_epoch = {
        v: out[v]["cross_bytes"] / epochs for v in VARIANTS
    }
    ratios = {
        "cross_bytes_vs_flat": (per_epoch["flat"]
                                / max(1.0, per_epoch["regional"])),
        "cross_bytes_prox_vs_flat": (per_epoch["flat"]
                                     / max(1.0, per_epoch["prox"])),
        "backbone_bytes_vs_flat": (out["flat"]["backbone_bytes"]
                                   / max(1, out["regional"]["backbone_bytes"])),
    }
    # Claim 2: one partial per region across the backbone -- >= 3x
    # fewer cross-region exchange bytes per epoch than the flat tree.
    assert ratios["cross_bytes_vs_flat"] >= 3.0, (
        "cross-region byte reduction only {:.2f}x".format(
            ratios["cross_bytes_vs_flat"])
    )

    # Claim 3: locality shortens the tail -- the regional path's p95
    # completion lag is no worse than the flat baseline's.
    p95 = {v: percentile(list(out[v]["lags"].values()), 0.95)
           for v in VARIANTS}
    assert p95["regional"] <= p95["flat"], (
        "regional p95 lag {:.3f}s worse than flat {:.3f}s".format(
            p95["regional"], p95["flat"])
    )
    return out, ratios, per_epoch, p95


def run_failure_leg(seed, per_region, lifetime):
    """Partition one region for two epochs mid-run; gate exact recovery.

    The reference is the same seeded regional run without the
    partition. Epochs closing before the cut must match exactly; the
    cut must actually drop traffic; and every epoch whose final flush
    happens after the heal -- including windows that SPAN the
    partition, whose partition-era panes come back from the
    pseudo-owners' retained state -- must match the reference again.
    """
    cut_at = 2.5 * EVERY
    heal_at = 4.5 * EVERY
    region = "eu"  # never the query site's region (site is in "us")

    def disturb(t0):
        return [
            (t0 + cut_at, "partition_region", region),
            (t0 + heal_at, "heal_region", region),
        ]

    reference = run_leg(seed, per_region, "regional", lifetime)
    cut = run_leg(seed, per_region, "regional", lifetime, disturb=disturb)
    assert cut["partition_drops"] > 0, "the partition dropped nothing"
    assert set(cut["epochs"]) == set(reference["epochs"])

    # Epoch k collects until its close at k*EVERY + deadline; only
    # epochs fully closed before the cut are guaranteed untouched.
    deadline = reference["deadline"]
    pre = [
        k for k in sorted(reference["epochs"])
        if k * EVERY + deadline < cut_at
    ]
    assert pre, "no pre-partition epochs to compare"
    for k in pre:
        assert cut["epochs"][k] == reference["epochs"][k], (
            "pre-partition epoch {} diverged".format(k)
        )

    # Recovery: one epoch after the heal the cut region's finals have
    # re-flushed their retained panes; from there on the answers are
    # exact again, spanning windows included.
    recovered = [
        k for k in sorted(reference["epochs"])
        if k * EVERY >= heal_at + EVERY
    ]
    assert recovered, "lifetime too short to observe recovery"
    for k in recovered:
        assert cut["epochs"][k] == reference["epochs"][k], (
            "post-heal epoch {}: {!r} != reference {!r}".format(
                k, cut["epochs"][k], reference["epochs"][k])
        )
    degraded = [
        k for k in sorted(reference["epochs"])
        if k not in pre and k not in recovered
        and cut["epochs"][k] != reference["epochs"][k]
    ]
    return {
        "pre_epochs": len(pre),
        "degraded_epochs": len(degraded),
        "recovered_epochs": len(recovered),
        "partition_drops": cut["partition_drops"],
    }


def exhibit(per_region, lifetime, out, ratios, per_epoch, p95, failure):
    from benchmarks._harness import fmt_table

    nodes = per_region * len(REGIONS)
    text = ("Ext-K: region-aware execution -- proximity routing + "
            "region-local aggregation trees\n"
            "({} nodes in {} regions, epoch {}s, window {}s, lifetime "
            "{}s, sample every {}s)\n\n".format(
                nodes, len(REGIONS), int(EVERY), int(RATIO * EVERY),
                int(lifetime), int(SAMPLE_PERIOD)))
    rows = []
    for variant in VARIANTS:
        leg = out[variant]
        rows.append((
            variant, len(leg["epochs"]), leg["cross_msgs"],
            int(per_epoch[variant]), leg["backbone_bytes"],
            round(p95[variant], 3),
        ))
    text += fmt_table(
        ["path", "epochs", "xregion exch msgs", "xregion exch B/epoch",
         "backbone bytes", "p95 lag (s)"],
        rows,
    )
    text += (
        "\n\nper-epoch results identical across all three paths\n"
        "cross-region exchange bytes/epoch: {:.2f}x lower than flat "
        "({:.2f}x from proximity routing alone)\n"
        "total backbone bytes: {:.2f}x lower than flat\n\n"
        "region partition leg (regional path, '{}' cut for 2 epochs):\n"
        "  {} pre-partition epochs exact, {} degraded during the cut,\n"
        "  {} post-heal epochs exact (spanning windows included), "
        "{} messages dropped at the cut\n".format(
            ratios["cross_bytes_vs_flat"],
            ratios["cross_bytes_prox_vs_flat"],
            ratios["backbone_bytes_vs_flat"],
            "eu", failure["pre_epochs"], failure["degraded_epochs"],
            failure["recovered_epochs"], failure["partition_drops"],
        )
    )
    return text


def run_all(seed, per_region, lifetime):
    out, ratios, per_epoch, p95 = run_sweep(seed, per_region, lifetime)
    failure = run_failure_leg(seed + 1, per_region, lifetime)
    return out, ratios, per_epoch, p95, failure


def metrics_from(ratios, p95, failure):
    return {
        "parity": True,
        "failure_recovers_exact": True,
        "cross_bytes_ratio_vs_flat": round(
            ratios["cross_bytes_vs_flat"], 4),
        "cross_bytes_ratio_prox_vs_flat": round(
            ratios["cross_bytes_prox_vs_flat"], 4),
        "backbone_bytes_ratio_vs_flat": round(
            ratios["backbone_bytes_vs_flat"], 4),
        "p95_lag_flat": round(p95["flat"], 4),
        "p95_lag_regional": round(p95["regional"], 4),
        "recovered_epochs": failure["recovered_epochs"],
    }


def test_geo_regions(benchmark):
    from benchmarks._harness import report, run_once

    def run():
        return run_all(seed=11, per_region=NODES_PER_REGION,
                       lifetime=LIFETIME)

    out, ratios, per_epoch, p95, failure = run_once(benchmark, run)
    report("geo_regions",
           exhibit(NODES_PER_REGION, LIFETIME, out, ratios, per_epoch,
                   p95, failure),
           metrics=metrics_from(ratios, p95, failure),
           scale="full")
    benchmark.extra_info["ratios"] = {
        k: round(v, 3) for k, v in ratios.items()
    }


def main(argv=None):
    import argparse

    from benchmarks._harness import begin

    begin("geo_regions")

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="quick 12-node pass (same parity + reduction checks)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        per_region, lifetime = SMOKE_NODES_PER_REGION, SMOKE_LIFETIME
    else:
        per_region, lifetime = NODES_PER_REGION, LIFETIME
    out, ratios, per_epoch, p95, failure = run_all(
        seed=11, per_region=per_region, lifetime=lifetime
    )
    text = exhibit(per_region, lifetime, out, ratios, per_epoch, p95,
                   failure)
    print(text)
    from benchmarks._harness import report, write_metrics

    metrics = metrics_from(ratios, p95, failure)
    if args.smoke:
        write_metrics("geo_regions", metrics, scale="smoke")
    else:
        report("geo_regions", text, metrics=metrics, scale="full")
    print("ok: parity on all paths; cross-region exchange bytes "
          "{:.2f}x lower; p95 lag {:.3f}s vs {:.3f}s flat; partition "
          "leg recovered exactly".format(
              ratios["cross_bytes_vs_flat"], p95["regional"],
              p95["flat"]))
    return 0


if __name__ == "__main__":
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    sys.exit(main())
