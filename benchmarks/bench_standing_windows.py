"""Standing windows: the paper's continuous query answered each epoch
by one long-lived execution, against the paths it replaced.

Fig. 1's query -- every node samples its outbound rate into a stream
table, and one continuous query returns the network-wide SUM and
sample COUNT each epoch -- plus the grouped, joined and sketched
windows built on the same machinery. Every epoch of every leg is
checked against the rows its testbed appended (``ticker_net``'s
``RowLog``), recomputed in plain Python; a second leg, on a twin
seeded testbed, runs only where it feeds a ratio gate. Four sections,
each writing its own results file for ``tools/check_bench.py``:

* ``continuous_standing`` (Ext-G) -- one standing query vs polling (a
  fresh one-shot windowed query at every epoch boundary, which
  re-broadcasts, re-plans and re-scans the retained window), with the
  aggregation tree and with the rehash ablation
  (``aggregation_tree=False``). Standing sends fewer messages in both
  modes. Rows scanned are reported, not gated: with retention bounded
  by the horizon a poll and a standing scan land within 2x of each
  other either way.
* ``sliding_windows`` (Ext-H) -- paned vs from-scratch (``paned=False``,
  every epoch re-folds the whole window) at WINDOW/EVERY = 1, 2, 4, 8:
  >= 2x fewer rows folded at 4x. Then a tree plan whose flush lands
  ~8.7 s into a 6 s period must plan an epoch ring and run as one
  StandingExecution per node.
* ``epoch_overlap`` (Ext-H) -- the N-live-epoch ring: the flush horizon
  pinned at ~9.1 s and the period swept so the ring width N = 1, 2, 4,
  8; fewer messages per epoch than polling from 4x on. Then a
  continuous Bloom join, standing vs polled: fewer messages.
* ``distributed_panes`` (Ext-I) -- pane-tagged exchanges ship each
  pane's increment once and the owner assembles windows from pane
  partials: a grouped tree aggregate over time-coherent groups and a
  stream x DHT fetch-matches join, each paned vs from scratch (>= 2x
  fewer folds); and ``APPROX_COUNT_DISTINCT`` / ``APPROX_TOPK`` within
  their sketches' error bounds of the exact answers.

Runs under pytest, CI-sized by default and at full size with
``PIER_BENCH_SCALE=full``; writes each section's
``results/<section>.json`` and ``.txt`` exhibit.
"""

import math
from collections import Counter
from unittest import mock

from benchmarks._harness import begin, fmt_table, full_scale, report, ticker_net
from benchmarks.perf.reference import same_rows
from repro.core import planner
from repro.core.aggregates import aggregate_by_name
from repro.core.dataflow import StandingExecution
from repro.core.network import PierNetwork

SUM_SQL = (
    "SELECT SUM(rate_kbps) AS total_rate, COUNT(*) AS samples "
    "FROM node_stats EVERY {:g} SECONDS WINDOW {:g} SECONDS "
    "LIFETIME {:g} SECONDS"
)
POLL_SQL = (
    "SELECT SUM(rate_kbps) AS total_rate, COUNT(*) AS samples "
    "FROM node_stats WINDOW {:g} SECONDS"
)
TAIL = " EVERY {e:g} SECONDS WINDOW {w:g} SECONDS LIFETIME {l:g} SECONDS"
TREE_SQL = ("SELECT bucket, SUM(v) AS total, COUNT(*) AS n FROM events "
            "GROUP BY bucket" + TAIL)
JOIN_SQL = (
    "SELECT d.severity, COUNT(*) AS hits, SUM(s.v) AS vol "
    "FROM events s, rules d WHERE s.rule = d.rule_id GROUP BY d.severity"
    + TAIL
)
RULES = {r: "sev{}".format(r % 3) for r in range(6)}  # rule_id -> severity
SKETCH_SQL = {
    "approx": "SELECT APPROX_COUNT_DISTINCT(src) AS d FROM events" + TAIL,
    "topk": "SELECT APPROX_TOPK(src) AS top FROM events" + TAIL,
}
BLOOM_POLL_SQL = (
    "SELECT r.k AS k, r.v AS v, s2.w AS w FROM r, s2 WHERE r.k = s2.k"
)
BLOOM_SQL = BLOOM_POLL_SQL + " EVERY 12 SECONDS LIFETIME 36 SECONDS"

SEED = 7
EVERY = 10.0


# ----------------------------------------------------------------------
# The truth (the answers above, in plain Python) and the legs
# ----------------------------------------------------------------------
def _sums(pairs):
    """``[(group, SUM, COUNT)]`` over ``(group, value)`` pairs: TREE_SQL."""
    out = {}
    for group, value in pairs:
        total, n = out.get(group, (0.0, 0))
        out[group] = (total + value, n + 1)
    return [(g, t, n) for g, (t, n) in out.items()]


def totals(rows):
    """SUM_SQL and POLL_SQL: one row, none over an empty window."""
    return [(t, n) for _g, t, n in _sums((None, v) for (v,) in rows)]


def by_severity(rows):
    """JOIN_SQL (every rule is published)."""
    return [(g, n, t) for g, t, n in _sums((RULES[r], v) for r, v in rows)]


def _window(leg, k):
    """Epoch k's window ``(t_k - W, t_k]``, ``t_k = t0 + k * every``."""
    hi = leg["t0"] + k * leg["every"]
    return hi - leg["window"], hi


def parity(label, leg, log, table, answer, min_epochs=4):
    """Assert ``leg`` answered each of at least ``min_epochs`` epochs as
    ``answer`` does over the rows of ``table`` that ``log`` holds for the
    epoch's window; returns how many."""
    epochs = leg["epochs"]
    assert len(epochs) >= min_epochs, "{}: {} epochs answered".format(
        label, len(epochs))
    for k, rows in epochs.items():
        want = answer(log.window(table, *_window(leg, k)))
        assert same_rows(rows, want), (
            "{}: epoch {} answered {!r}, the appended rows {!r}".format(
                label, k, rows, want))
    return len(epochs)


def _counters(net):
    sent = net.message_counters()
    engines = [n.engine for n in net.nodes.values()]
    return {
        "messages": sent.get("messages_sent", 0),
        "bytes": sent.get("bytes_sent", 0),
        "exchange_messages": sent.get("exchange_messages", 0),
        "exchange_rows": sent.get("exchange_rows", 0),
        "rows_scanned": sum(e.rows_scanned for e in engines),
        "rows_folded": sum(e.rows_aggregated for e in engines),
        "rows_merged": sum(e.rows_merged for e in engines),
    }


def _leg(net, before, epochs, count, t0, every, window):
    """What a leg answered (``epochs``: epoch -> rows, each of its
    ``count``, as one dropped would flatter a ratio gate) and moved."""
    assert sorted(epochs) == list(range(1, count + 1)), sorted(epochs)
    leg = {k: v - before[k] for k, v in _counters(net).items()}
    leg.update(epochs=epochs, num_epochs=count, t0=t0, every=every,
               window=window)
    return leg


def standing(net, sql, lifetime, options=None, probe=None):
    """Run ``sql`` as one standing query to its end; returns the plan
    and the leg. ``probe = (at, check)`` calls ``check(net, handle)``
    ``at`` seconds in."""
    before = _counters(net)
    handle = net.submit_sql(sql, node=net.any_address(), options=options)
    plan = handle.plan
    assert plan.standing
    run = lifetime + plan.deadline + 5.0
    if probe is not None:
        at, check = probe
        net.advance(at)
        check(net, handle)
        run -= at
    net.advance(run)
    epochs = {k: r.rows for k, r in handle.results.items()}
    return plan, _leg(net, before, epochs, plan.last_epoch, handle.t0,
                      plan.every, plan.window)


def polls(net, sql, every, count, options=None):
    """Poll with a fresh one-shot ``sql`` at each of ``count`` epoch
    boundaries ``every`` seconds apart; epoch k is the k-th answer.
    Each poll is submitted at the instant the standing leg's epoch
    closes its window, so both legs read identical data."""
    before, t0 = _counters(net), net.now
    site = net.any_address()
    pending = []
    for _k in range(count):
        net.advance(every)
        results = []
        handle = net.submit_sql(sql, node=site, on_epoch=results.append,
                                options=options)
        assert not handle.plan.standing
        pending.append((handle.plan, results))
    plans = [plan for plan, _r in pending]
    net.advance(max(plan.deadline for plan in plans) + 5.0)
    epochs = {k: results[-1].rows if results else []
              for k, (_plan, results) in enumerate(pending, 1)}
    return plans, _leg(net, before, epochs, count, t0, every, plans[0].window)


def sum_vs_polls(label, seed, nodes, every, lifetime, retention, warmup,
                 options=None, period=2.0, delay=0.1):
    """Fig. 1's SUM over ``every``-second windows on twin ticker
    testbeds, standing on one and polled on the other, each leg checked
    against its own testbed's appended rows."""
    def testbed():
        net, log = ticker_net(seed, nodes, retention, period=period,
                              delay=delay)
        net.advance(warmup)
        return net, log

    net, log = testbed()
    plan, run = standing(net, SUM_SQL.format(every, every, lifetime),
                         lifetime, options)
    parity(label, run, log, "node_stats", totals)
    net, log = testbed()
    _plans, poll = polls(net, POLL_SQL.format(every), every,
                         int(round(lifetime / every)), options)
    parity(label + " (polls)", poll, log, "node_stats", totals)
    return plan, run, poll


def paned_vs_scratch(label, build, sql, lifetime, warmup, table, answer):
    """``sql`` standing on twin testbeds from ``build()``, from scratch
    (``paned=False``) and paned, each leg checked against its own
    testbed's appended rows; returns leg -> (plan, leg)."""
    out = {}
    for name, options in (("scratch", {"paned": False}), ("paned", {})):
        net, log = build()
        net.advance(warmup)
        _plan, leg = out[name] = standing(net, sql, lifetime, options)
        parity(label + " " + name, leg, log, table, answer)
    return out


def fewer_messages(label, run, poll, gate=True):
    """The standing leg's reduction in messages per epoch against the
    polling leg; with ``gate``, assert it sends fewer."""
    per_run = run["messages"] / max(1, run["num_epochs"])
    per_poll = poll["messages"] / max(1, poll["num_epochs"])
    assert not gate or per_run < per_poll, (
        "{}: standing sent {} msgs/epoch vs {}".format(
            label, per_run, per_poll))
    return per_poll / max(1.0, per_run)


def _ratio(reference, leg, key):
    return reference[key] / max(1, leg[key])


# ----------------------------------------------------------------------
# continuous_standing: standing vs polling, tree and rehash
# ----------------------------------------------------------------------
def continuous_standing(smoke):
    nodes, lifetime = (24, 40.0) if smoke else (48, 80.0)
    metrics, ratios, rows = {"parity": True}, {}, []
    for mode, tree in (("tree", True), ("rehash", False)):
        # Retention of 2x the window, like the monitoring app: every
        # poll is charged the whole retained fragment.
        _plan, run, poll = sum_vs_polls(
            mode, SEED, nodes, EVERY, lifetime, retention=2 * EVERY,
            warmup=EVERY, options={"aggregation_tree": tree})
        ratios[mode] = fewer_messages(mode, run, poll)
        metrics["{}_msgs_ratio".format(mode)] = round(ratios[mode], 4)
        rows += [("{}/{}".format(mode, label), leg["num_epochs"],
                  leg["messages"], leg["bytes"], leg["exchange_messages"],
                  leg["rows_scanned"])
                 for label, leg in (("oneshot", poll), ("standing", run))]
    text = (
        "Ext-G: standing execution vs per-epoch polling (fig1 continuous "
        "sum)\n({} nodes, epoch {:g}s, window {:g}s, lifetime {:g}s, sample "
        "every 2s)\n\n".format(nodes, EVERY, EVERY, lifetime)
        + fmt_table(["config", "epochs", "messages", "bytes",
                     "exch msgs (hops)", "rows scanned"], rows)
        + "\n\nper-epoch results: standing and polls identical to the "
        "appended rows in both modes\nmessages_sent reduction: tree "
        "{:.2f}x, rehash {:.2f}x (one broadcast + one cursor replace "
        "per-epoch re-submission)\n".format(ratios["tree"], ratios["rehash"])
    )
    return text, metrics


# ----------------------------------------------------------------------
# sliding_windows: paned vs from scratch; an overlapping-flush plan
# ----------------------------------------------------------------------
def _runs_standing(net, handle):
    """The overlapping-flush plan keeps an epoch ring, and every engine
    that adopted it runs it as a StandingExecution."""
    assert handle.plan.epoch_overlap > 1, (
        "overlapping-flush plan lost its overlap: ring width {}".format(
            handle.plan.epoch_overlap))
    live = [n.engine.queries[handle.qid].execution
            for n in net.nodes.values()
            if handle.qid in n.engine.queries]
    assert live, "no engine adopted the standing query"
    assert all(isinstance(e, StandingExecution) and e.overlap
               for e in live), (
        "engines ran the overlapping plan outside StandingExecution")


def sliding_windows(smoke):
    nodes, ratios, lifetime = ((16, (1, 4), 60.0) if smoke
                               else (48, (1, 2, 4, 8), 80.0))
    metrics, folds, rows = {"parity": True}, {}, []
    for ratio in ratios:
        window = ratio * EVERY
        legs = paned_vs_scratch(
            "W/E={}".format(ratio),
            lambda: ticker_net(SEED, nodes, retention=window + EVERY),
            SUM_SQL.format(EVERY, window, lifetime), lifetime, window,
            "node_stats", totals)
        for label, (plan, leg) in legs.items():
            assert (plan.pane is not None) == (label == "paned" and ratio > 1)
            rows.append(("{}x/{}".format(ratio, label), leg["num_epochs"],
                         leg["rows_scanned"], leg["rows_folded"],
                         leg["rows_folded"] / max(1, leg["num_epochs"])))
        scratch, paned = legs["scratch"][1], legs["paned"][1]
        folds[ratio] = _ratio(scratch, paned, "rows_folded")
        metrics["fold_ratio_{}x".format(ratio)] = round(folds[ratio], 4)
    # The headline bar: at 4x overlap the paned path must do at least
    # 2x less per-epoch aggregation work.
    if 4 in ratios:
        assert folds[4] >= 2.0, "W/E=4 fold reduction only {:.2f}x".format(
            folds[4])

    # A tree plan whose final flush lands ~8.7 s after each 6 s boundary.
    net, log = ticker_net(31, 12, retention=18.0)
    net.advance(6.0)
    _plan, run = standing(net, SUM_SQL.format(6.0, 6.0, 48.0), 48.0,
                          probe=(9.0, _runs_standing))
    metrics["overlap_epochs"] = parity(
        "overlap", run, log, "node_stats", totals)
    text = (
        "Ext-H: paned sliding-window aggregation vs from-scratch "
        "recomputation\n({} nodes, epoch {:g}s, lifetime {:g}s, sample every "
        "2s; standing executions)\n\n".format(nodes, EVERY, lifetime)
        + fmt_table(["W/E / path", "epochs", "rows scanned", "rows folded",
                     "folded/epoch"], rows)
        + "\n\nper-epoch results: paned and from-scratch identical to the "
        "appended rows at every ratio\nrows-folded reduction: "
        + ", ".join("{}x overlap -> {:.2f}x".format(r, folds[r])
                    for r in ratios)
        + "\noverlapping-flush plan (tree aggregation, flush ~8.7s into a "
        "6s period):\n  planned standing+overlapping, ran as one "
        "StandingExecution per node,\n  {} epochs identical to "
        "the appended rows\n".format(metrics["overlap_epochs"])
    )
    return text, metrics


# ----------------------------------------------------------------------
# epoch_overlap: the ring vs polling; a standing Bloom join
# ----------------------------------------------------------------------
def _bloom_net(nodes):
    """The testbed, and the join of every row it inserts: each epoch's
    answer."""
    net = PierNetwork(nodes=nodes, seed=SEED)
    net.create_local_table("r", [("k", "INT"), ("v", "INT")])
    net.create_local_table("s2", [("k", "INT"), ("w", "INT")])
    r = [((i + j) % 8, 10 + j) for i in range(nodes) for j in range(3)]
    s2 = [((2 * i + j) % 16, 100 + j) for i in range(nodes) for j in range(2)]
    for i, address in enumerate(net.addresses()):
        net.insert(address, "r", r[3 * i:3 * i + 3])
        net.insert(address, "s2", s2[2 * i:2 * i + 2])
    return net, [(k, v, w) for k, v in r for k2, w in s2 if k == k2]


def epoch_overlap(smoke):
    nodes, ratios = (12, (1, 2, 4)) if smoke else (20, (1, 2, 4, 8))
    metrics, rows = {"parity": True}, []
    # Stretch the rehash transfer to the tree's so the flush horizon is
    # ~9.1 s: sweeping the period then sweeps horizon/period without
    # touching the dataflow shape. Plans read it when compiled.
    with mock.patch.object(planner, "REHASH_XFER", planner.TREE_XFER):
        for ratio in ratios:
            every = EVERY / ratio
            name = "ratio {}".format(ratio)
            plan, run, poll = sum_vs_polls(
                name, SEED, nodes, every, max(6.0 * every, 12.0),
                retention=20.0, warmup=20.0,
                options={"aggregation_tree": False}, period=0.5, delay=0.05)
            assert plan.epoch_overlap == ratio, (
                "ratio {} planned a ring of {}".format(
                    ratio, plan.epoch_overlap))
            # The bar: at >= 4x overlap the ring must beat polling on
            # messages per epoch, not just match it.
            reduction = fewer_messages(name, run, poll, gate=ratio >= 4)
            metrics["msgs_ratio_{}x".format(ratio)] = round(reduction, 4)
            rows += [("{}x/{}".format(ratio, label), ring, leg["num_epochs"],
                      leg["messages"],
                      round(leg["messages"] / max(1, leg["num_epochs"])),
                      leg["rows_scanned"])
                     for label, ring, leg in (("oneshot", "-", poll),
                                              ("standing", ratio, run))]

    options = {"join_strategy": "bloom"}
    net, joined = _bloom_net(nodes)
    assert joined, "the bloom testbed joins no rows"
    plan, run = standing(net, BLOOM_SQL, 36.0, options)
    plans, poll = polls(_bloom_net(nodes)[0], BLOOM_POLL_SQL, 12.0, 3,
                        options)
    assert all(p.ops_of_kind("bloom_stage") for p in [plan] + plans)
    for leg in (run, poll):
        assert len(leg["epochs"]) >= 3 and all(
            same_rows(rows, joined) for rows in leg["epochs"].values()), (
            "bloom join {!r}, the inserted rows join to {!r}".format(
                leg["epochs"], joined))
    bloom = fewer_messages("bloom", run, poll)
    metrics["bloom_msgs_ratio"] = round(bloom, 4)
    text = (
        "Ext-H: N-live-epoch ring vs per-epoch polling\n({} nodes, flush "
        "horizon ~9.1s, period swept so horizon/period = ring width N;\n "
        "sample every 0.5s, retention 20s)\n\n".format(nodes)
        + fmt_table(["config", "ring N", "epochs", "messages", "msgs/epoch",
                     "rows scanned"], rows)
        + "\n\nper-epoch results: standing and polls identical to the "
        "appended rows at every ratio\n"
        + "".join("ratio {}x: msgs/epoch reduction {:.2f}x\n".format(
            r, metrics["msgs_ratio_{}x".format(r)]) for r in ratios)
        + "\nbloom join (standing vs polling): both the join of the inserted "
        "rows every epoch, {:.2f}x fewer messages\n  oneshot {} msgs / "
        "standing {} msgs over {} epochs\n".format(
            bloom, poll["messages"], run["messages"], run["num_epochs"])
    )
    return text, metrics


# ----------------------------------------------------------------------
# distributed_panes: pane-tagged exchanges; sketch aggregates
# ----------------------------------------------------------------------
def _tree(seed, nodes, every, window, lifetime):
    """Time-coherent groups (keyed by a coarse time bucket, the
    intrusion-log shape): a group goes quiet once its bucket passes,
    which is exactly where shipping full window states every epoch is
    pure overlap redundancy."""
    legs = paned_vs_scratch(
        "tree",
        lambda: ticker_net(
            seed, nodes, window + every, table="events",
            columns=(("bucket", "INT"), ("v", "FLOAT")),
            value=lambda engine, i, _step, _base: (
                int(engine.clock.now // every), float(i + 1))),
        TREE_SQL.format(e=every, w=window, l=lifetime), lifetime, window,
        "events", _sums)
    plan = legs["paned"][0]
    assert all(plan.ops_of_kind(kind)[0].params.get("paned") for kind in (
        "groupby_partial", "exchange", "groupby_final")), (
        "distributed plan did not tag the partial/exchange/final paned")
    assert legs["scratch"][0].pane is None
    scratch, paned = legs["scratch"][1], legs["paned"][1]
    ratios = {key: _ratio(scratch, paned, key)
              for key in ("rows_merged", "rows_folded", "exchange_rows")}
    assert ratios["rows_merged"] >= 2.0, (
        "owner-side fold reduction only {:.2f}x".format(ratios["rows_merged"]))
    assert ratios["rows_folded"] >= 2.0
    return legs, ratios


def _join(seed, nodes, every, window, lifetime):
    """A stream probe side joined against a DHT-published table, with a
    paned aggregate above: panes cross the asynchronous fetch, so the
    join stops re-probing (and re-folding) the overlap."""
    def build():
        net, log = ticker_net(
            seed, nodes, window + every, table="events",
            columns=(("rule", "INT"), ("v", "FLOAT")),
            value=lambda engine, i, _step, _base: (
                (i + int(engine.clock.now)) % 6, float(i + 1)))
        net.create_dht_table(
            "rules", [("rule_id", "INT"), ("severity", "STR")],
            partition_key="rule_id", ttl=600.0)
        addresses = net.addresses()
        for rule, severity in RULES.items():
            net.publish(addresses[rule % len(addresses)], "rules",
                        (rule, severity), keep_alive=True)
        return net, log

    legs = paned_vs_scratch(
        "join", build, JOIN_SQL.format(e=every, w=window, l=lifetime),
        lifetime, window, "events", by_severity)
    plan = legs["paned"][0]
    assert (plan.ops_of_kind("fetch_matches") and plan.pane is not None
            and plan.ops_of_kind("groupby_partial")[0].params["paned"]
            == plan.pane), "panes did not cross the fetch-matches join"
    scratch, paned = legs["scratch"][1], legs["paned"][1]
    ratio = _ratio(scratch, paned, "rows_folded")
    assert ratio >= 2.0, "join fold reduction only {:.2f}x".format(ratio)
    return paned["num_epochs"], ratio


def _sketches(seed, nodes, every, window, lifetime, cardinality=96):
    """HyperLogLog and Count-Min pane partials against the exact
    answers over the appended rows."""
    out = {}
    for label, sql in SKETCH_SQL.items():
        # Zipf-ish skew: low ids recur (heavy hitters), high ids churn.
        net, log = ticker_net(
            seed, nodes, window + every, table="events",
            columns=(("src", "STR"),),
            value=lambda engine, i, _step, _base: ("src-{}".format(
                (i * 13 + int(engine.clock.now * 3)) % cardinality),))
        net.advance(window)
        plan, leg = standing(net, sql.format(e=every, w=window, l=lifetime),
                             lifetime)
        assert plan.pane is not None
        out[label] = {k: (rows, Counter(
            src for (src,) in log.window("events", *_window(leg, k))))
            for k, rows in leg["epochs"].items() if rows}

    # HLL vs exact: within 3 standard errors of the documented bound.
    hll_bound = 3 * 1.04 / math.sqrt(1 << 10)
    worst_hll = 0.0
    assert len(out["approx"]) >= 4
    for k, (rows, truth) in sorted(out["approx"].items()):
        approx, exact = rows[0][0], len(truth)
        err = abs(approx - exact) / max(1, exact)
        worst_hll = max(worst_hll, err)
        assert err <= hll_bound, (
            "epoch {}: APPROX_COUNT_DISTINCT {} vs exact {} "
            "(err {:.3f} > {:.3f})".format(k, approx, exact, err, hll_bound))

    # Count-Min top-k vs exact counts, on the final epoch: estimates
    # never under-count and over-count by <= eps * N.
    cm = aggregate_by_name("APPROX_TOPK")._empty
    rows, truth = out["topk"][max(out["topk"])]
    total = sum(truth.values())
    top = rows[0][0]
    assert top, "APPROX_TOPK returned no candidates"
    worst_cm = 0
    for value, estimate in top:
        true_n = truth[value]
        assert estimate >= true_n, "Count-Min under-counted"
        worst_cm = max(worst_cm, estimate - true_n)
        assert estimate <= true_n + cm.epsilon * total, (
            "{}: estimate {} vs true {} exceeds eps*N = {:.1f}".format(
                value, estimate, true_n, cm.epsilon * total))
    # A truly heaviest value (any of a tie) surfaces among the candidates.
    heaviest = max(truth.values())
    assert any(truth[v] == heaviest for v, _e in top), (
        "APPROX_TOPK missed every heaviest value")
    return {"worst_hll_err": worst_hll, "hll_bound": hll_bound,
            "worst_cm_overcount": worst_cm, "cm_bound": cm.epsilon * total}


def distributed_panes(smoke):
    nodes, lifetime = (12, 60.0) if smoke else (24, 80.0)
    window = 4 * EVERY
    legs, tree = _tree(SEED, nodes, EVERY, window, lifetime)
    join_epochs, join_ratio = _join(SEED + 1, max(8, nodes // 2), 8.0, 32.0,
                                    min(lifetime, 48.0))
    sketch = _sketches(SEED + 2, max(8, nodes // 2), 8.0, 32.0,
                       min(lifetime, 40.0))
    metrics = {
        "tree_parity": True,
        "join_parity": True,
        "sketch_within_bounds": True,
        "merged_ratio_vs_scratch": round(tree["rows_merged"], 4),
        "folded_ratio_vs_scratch": round(tree["rows_folded"], 4),
        "join_folded_ratio": round(join_ratio, 4),
        "hll_worst_err": round(sketch["worst_hll_err"], 4),
        "cm_worst_overcount": sketch["worst_cm_overcount"],
    }
    epochs = max(1, legs["scratch"][1]["num_epochs"])
    rows = [(label, leg["num_epochs"], leg["rows_folded"],
             leg["rows_merged"], leg["rows_merged"] / epochs,
             leg["exchange_rows"])
            for label, (_plan, leg) in (("scratch", legs["scratch"]),
                                        ("dist", legs["paned"]))]
    text = (
        "Ext-I: distributed panes -- pane-tagged exchanges + sketch-backed "
        "aggregates\n({} nodes, epoch {:g}s, window {:g}s (overlap 4x), "
        "lifetime {:g}s, sample every 2s)\n\n".format(
            nodes, EVERY, window, lifetime)
        + fmt_table(["path", "epochs", "rows folded", "owner folds",
                     "owner folds/epoch", "exchange rows"], rows)
        + "\n\nper-epoch results identical to the appended rows on both "
        "paths\nowner-side folds: {:.2f}x fewer than scratch\nexchange "
        "rows vs scratch: {:.2f}x fewer\n\nfetch-matches join (stream "
        "probe x DHT rules, paned aggregate above):\n  {} epochs identical "
        "to the appended rows, "
        "{:.2f}x fewer rows folded\n\nsketch aggregates (pane partials "
        "constant-size):\n  APPROX_COUNT_DISTINCT worst error {:.3f} (bound "
        "{:.3f}, 3 std errs)\n  APPROX_TOPK over-count worst {} (bound "
        "eps*N = {:.1f}), never under-counts\n".format(
            tree["rows_merged"], tree["exchange_rows"], join_epochs,
            join_ratio, sketch["worst_hll_err"], sketch["hll_bound"],
            sketch["worst_cm_overcount"], sketch["cm_bound"])
    )
    return text, metrics


# ----------------------------------------------------------------------
# The entry point
# ----------------------------------------------------------------------
SECTIONS = (continuous_standing, sliding_windows, epoch_overlap,
            distributed_panes)


def test_standing_windows():
    """Run every section, asserting its gates, and write each section's
    exhibit and results file."""
    for section in SECTIONS:
        begin(section.__name__)
    smoke = not full_scale()
    for section in SECTIONS:
        text, metrics = section(smoke)
        report(section.__name__, text, metrics)
