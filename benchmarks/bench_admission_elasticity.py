"""Ext-L: admission control + owner backpressure under load.

Two exhibits in one bench, both about what happens when offered load
approaches (and passes) what the testbed can absorb:

**Elasticity sweep (plan time).** Offered load sweeps 10% -> 100% of a
peak append rate while an HPA-style scaling policy sizes the testbed
from the *observed* arrival rate in the shared stats catalog
(``replicas = clamp(ceil(rate / target_per_node))``, scale events
rebuild the ring). At every step three admission outcomes are gated:

* a cheap grouped count stays admitted *untouched* at every load;
* an exact ``COUNT(DISTINCT ...)`` is admitted exact at low load and
  degraded to the HLL sketch -- with the degradation recorded in
  ``plan.metadata["admission"]`` -- once its cost bound crosses the
  budget (never silently wrong: the answer arrives *labeled*);
* a strict no-ladder gate policy *refuses* the same query at high
  load, and the refusal carries the offending bound.

The peak-load sketched query then actually runs, and its settled
epochs must estimate the known ground-truth distinct count within the
documented HLL error bound (3 sigma + slack).

**Static vs adaptive legs (run time).** At peak load, on a testbed
whose receivers have finite service capacity
(``NetworkConfig.service_time`` > 0, so overload is visible as queueing
delay), a skewed fan-in join runs under the static discipline (fixed
flush windows and batch caps: the engine's backpressure line,
``BACKPRESSURE_ROWS_PER_SEC``, patched to infinity for that leg only)
and the adaptive one (owner backpressure, as the engine always runs).
The join rehashes a high-rate stream on a 90%-skewed key, so each
epoch every origin ships a large burst toward ONE owner: static
fragments each burst into cap-sized messages and the owner's service
queue collapses into a retransmit-amplified meltdown, while the
adaptive leg's backpressure stretch raises the origins' batch caps
(few large messages) and keeps the owner under its service capacity.
(The overload is of the receiver's message queue, which Chord's own
keep-alives share: making ring maintenance cheaper un-melted the
static leg at the old load point -- see ``LOAD_ROWS_PER_TICK``.)
Gates: the adaptive leg's p95 epoch lag (last exchange delivery behind
its epoch boundary) is >= 1.2x lower, it ships fewer exchange
messages, and it loses no result rows relative to the static leg,
which sends no "xbp".

Runs under pytest (a 3-step sweep and 35 s overload legs by default,
5 steps and 60 s with ``PIER_BENCH_SCALE=full``) and writes
``results/admission_elasticity.json`` for the regression gate.
"""

import math
from unittest import mock

from benchmarks._harness import (
    begin, fmt_table, full_scale, percentile, report,
)
from repro.core import engine as engine_module
from repro.core.admission import AdmissionPolicy, bound_query_cost
from repro.core.network import PierConfig, PierNetwork
from repro.core.sql import parse_query
from repro.dht.config import DhtConfig
from repro.dht.messages import parts_of
from repro.sim.network import NetworkConfig

EVERY = 5.0

# -- elasticity sweep ---------------------------------------------------
PEAK_TOTAL_RATE = 30.0  # rows/sec across the whole testbed at 100%
LOAD_STEPS = (0.1, 0.25, 0.5, 0.75, 1.0)
SMOKE_LOAD_STEPS = (0.1, 0.5, 1.0)
WARM = 12.0
DISTINCT_CYCLE = 13  # distinct values per source node
ACCURACY_LIFETIME = 45.0

# HPA-style policy: size the ring from observed arrival rate.
TARGET_RATE_PER_NODE = 4.0
MIN_REPLICAS = 2
MAX_REPLICAS = 12

# Budgets in the cost bounder's units/sec (calibrated against the
# printed bounds; the sweep asserts the transitions, so drift in the
# cost model shows up as a failed gate, not a silent shift).
BUDGET_UNITS = 150.0
GATE_UNITS = 60.0

CHEAP_SQL = ("SELECT g, COUNT(*) AS n FROM load GROUP BY g "
             "EVERY 10 SECONDS WINDOW 10 SECONDS LIFETIME 30 SECONDS")
DISTINCT_SQL = ("SELECT COUNT(DISTINCT v) AS d FROM load "
                "EVERY 5 SECONDS WINDOW 15 SECONDS LIFETIME {l} SECONDS")

# -- static vs adaptive legs at peak ------------------------------------
LOAD_NODES = 8
LOAD_TICK = 0.1  # seconds between source ticks on each node
# 240 rows/sec per node. The static leg's meltdown is a capacity
# statement: its 64-row messages toward the hot owner must outrun the
# owner's 25 msg/s. At 200 rows/s they did so only together with the
# ring's keep-alive RPCs sharing that queue; since maintenance costs
# one exchange per ring edge (PR 16) 200 rows/s sits just *under*
# capacity (static p95 36 s -> 8 s). At 220 they did so only together
# with the hop acks coming back for the owner's own sends; since the
# batches a node ships to one next hop at one instant share one ack
# (hop bundling; the batches themselves still cost the receiver one
# service time each) 220 sits just under too (static p95 44 s ->
# 10 s, adaptive 13 s -> 10 s: ratio 1.00). So the load point moved,
# again, to where static alone is over: 230-260 rows/s all melt the
# static leg (smoke p95 21-35 s) and leave the adaptive one at 10-11 s.
LOAD_ROWS_PER_TICK = 24
SERVICE_TIME = 0.04  # receiver handles 25 msg/s: overload queues
LOAD_LIFETIME = 60.0
SMOKE_LOAD_LIFETIME = 35.0
HOT_SHARE = 9  # 9 of every 10 rows land in group 0
# Owner backpressure (the adaptive leg; sized by the BACKPRESSURE_*
# constants in core/engine.py): the hot group's owner sees ~1600
# rows/s, far over its line, so the xbp factor pegs at its cap and the
# origins' batch caps stretch 8x (64 -> 512-row batches).
# DHT timeouts for BOTH overload legs: queueing delay at the hot owner
# reaches seconds, and the stock sub-second rpc/hop timeouts would
# read that as loss and retransmit -- an amplification loop that turns
# overload into seed-dependent chaos. With patient timeouts the legs
# measure queueing itself, deterministically.
LOAD_RPC_TIMEOUT = 8.0
LOAD_HOP_RETRANSMIT = 6.0
LOAD_LOOKUP_TIMEOUT = 15.0
# A skewed fan-in join: the high-rate ``load`` stream rehashes on its
# 90%-skewed group key toward the join owners while the sparse
# ``probe`` side (one row per key per epoch) keeps the output bounded
# at ~one result row per load row. The hot key's owner is the
# message-rate hotspot backpressure exists for.
LOAD_SQL = ("SELECT p.mark, l.v FROM probe p, load l WHERE p.tag = l.g "
            "EVERY 5 SECONDS WINDOW 5 SECONDS LIFETIME {l} SECONDS")


def hpa_replicas(observed_rate):
    """clamp(ceil(rate / target-per-node)) -- the HPA core loop."""
    want = int(math.ceil(observed_rate / TARGET_RATE_PER_NODE))
    return max(MIN_REPLICAS, min(MAX_REPLICAS, want))


# ----------------------------------------------------------------------
# Elasticity sweep
# ----------------------------------------------------------------------
def build_sweep_net(seed, replicas, offered_rate):
    """A testbed with ``replicas`` nodes sourcing ``offered_rate``
    rows/sec in total; each node cycles DISTINCT_CYCLE values."""
    policy = AdmissionPolicy(budget_units=BUDGET_UNITS)
    net = PierNetwork(nodes=replicas, seed=seed,
                      config=PierConfig(admission=policy))
    net.create_stream_table(
        "load", [("g", "INT"), ("v", "INT")], window=15.0 + EVERY)
    period = replicas / offered_rate

    def make_tick(address, i):
        def tick():
            engine = net.node(address).engine
            engine.stream_append("load", (
                int(engine.clock.now // 1.0) % 4,
                i * DISTINCT_CYCLE + int(engine.clock.now) % DISTINCT_CYCLE,
            ))
            engine.set_timer(period, tick)

        return tick

    for i, address in enumerate(net.addresses()):
        net.node(address).engine.set_timer(0.1 + 0.01 * i,
                                           make_tick(address, i))
    return net


def admission_step(seed, replicas, fraction):
    """One load step: observe, scale, and take the three decisions."""
    offered = fraction * PEAK_TOTAL_RATE
    net = build_sweep_net(seed, replicas, offered)
    net.advance(WARM)
    observed = net.catalog.stats.arrival_rate("load", now=net.now)
    want = hpa_replicas(observed)
    scaled = want != replicas
    if scaled:
        # Scale event: rebuild the ring at the new size (same offered
        # load, now spread over ``want`` nodes) and re-observe.
        replicas = want
        net = build_sweep_net(seed + 1, replicas, offered)
        net.advance(WARM)
        observed = net.catalog.stats.arrival_rate("load", now=net.now)

    cheap = net.compile_sql(CHEAP_SQL)
    cheap_adm = cheap.metadata["admission"]
    distinct = net.compile_sql(DISTINCT_SQL.format(l=30))
    distinct_adm = distinct.metadata["admission"]

    # The pure gate: the undegraded bound against GATE_UNITS.
    raw = bound_query_cost(parse_query(DISTINCT_SQL.format(l=30)),
                           net.catalog, now=net.now).units_per_sec()
    refused_bound = raw if raw > GATE_UNITS else None

    return {
        "fraction": fraction,
        "observed_rate": observed,
        "replicas": replicas,
        "scaled": scaled,
        "cheap_degradations": cheap_adm["degradations"],
        "distinct_degradations": distinct_adm["degradations"],
        "distinct_bound": distinct_adm["bound"]["units_per_sec"],
        "refused_bound": refused_bound,
        "net": net,
    }


def run_sweep(seed, steps):
    """Sweep offered load; gate the admission pattern and accuracy."""
    replicas = MIN_REPLICAS
    rows = []
    for fraction in steps:
        step = admission_step(seed, replicas, fraction)
        replicas = step["replicas"]
        rows.append(step)

    # HPA: monotone non-decreasing replica path that actually scaled.
    path = [s["replicas"] for s in rows]
    assert path == sorted(path), "replica path not monotone: {}".format(path)
    assert path[-1] > path[0], "the sweep never scaled out"
    scale_events = sum(1 for s in rows if s["scaled"])

    # Admission pattern: the cheap query is never touched; the exact
    # distinct runs exact at the lowest load and sketched at the top.
    assert all(s["cheap_degradations"] == [] for s in rows)
    assert rows[0]["distinct_degradations"] == []
    top = rows[-1]["distinct_degradations"]
    assert [d["kind"] for d in top] == ["sketch"], (
        "peak-load distinct should degrade to the sketch alone, "
        "got {!r}".format(top))
    sketch_err = top[0]["relative_error"]
    degrade_mask = "".join(
        "1" if s["distinct_degradations"] else "0" for s in rows)
    refuse_mask = "".join(
        "1" if s["refused_bound"] is not None else "0" for s in rows)
    assert refuse_mask[0] == "0" and refuse_mask[-1] == "1", (
        "gate policy should admit at 10% and refuse at 100%, "
        "got {}".format(refuse_mask))

    # Accuracy: run the sketched query at peak; settled epochs must
    # estimate the known ground truth within 3 sigma (+2 slack).
    peak = rows[-1]
    net = peak["net"]
    truth = DISTINCT_CYCLE * peak["replicas"]
    results = []
    handle = net.submit_sql(DISTINCT_SQL.format(l=int(ACCURACY_LIFETIME)),
                            on_epoch=results.append)
    admission = handle.plan.metadata["admission"]
    assert admission["approximate"] is True
    net.advance(ACCURACY_LIFETIME + handle.plan.deadline + 5.0)
    settled = [r for r in results if r.epoch >= 3]
    assert settled, "no settled epochs from the accuracy leg"
    tolerance = 3.0 * sketch_err * truth + 2.0
    worst = 0.0
    for r in settled:
        # Every epoch of a degraded query is labeled approximate.
        assert r.approximate == admission["degradations"]
        estimate = r.rows[0][0]
        worst = max(worst, abs(estimate - truth))
        assert abs(estimate - truth) <= tolerance, (
            "epoch {}: sketch estimate {} vs truth {} exceeds "
            "documented bound {:.1f}".format(r.epoch, estimate, truth,
                                             tolerance))
    return {
        "rows": rows,
        "replica_path": path,
        "scale_events": scale_events,
        "degrade_mask": degrade_mask,
        "refuse_mask": refuse_mask,
        "sketch_rel_err": sketch_err,
        "truth": truth,
        "worst_abs_err": worst,
        "settled_epochs": len(settled),
    }


# ----------------------------------------------------------------------
# Static vs adaptive at peak load
# ----------------------------------------------------------------------
def make_load_config():
    return PierConfig(
        network=NetworkConfig(service_time=SERVICE_TIME),
        dht=DhtConfig(rpc_timeout=LOAD_RPC_TIMEOUT,
                      hop_retransmit_timeout=LOAD_HOP_RETRANSMIT,
                      lookup_timeout=LOAD_LOOKUP_TIMEOUT),
    )


def build_load_net(seed):
    net = PierNetwork(nodes=LOAD_NODES, seed=seed,
                      config=make_load_config())
    net.create_stream_table(
        "load", [("g", "INT"), ("v", "INT")], window=2 * EVERY)

    def make_tick(address, i):
        count = [0]

        def tick():
            engine = net.node(address).engine
            for _ in range(LOAD_ROWS_PER_TICK):
                count[0] += 1
                k = count[0]
                g = 0 if k % 10 < HOT_SHARE else 1 + k % 7
                engine.stream_append("load", (g, k))
            engine.set_timer(LOAD_TICK, tick)

        return tick

    for i, address in enumerate(net.addresses()):
        net.node(address).engine.set_timer(0.1 + 0.01 * i,
                                           make_tick(address, i))
    # Sparse probe side: one row per join key per epoch, from one node,
    # so the join output mirrors the load stream 1:1.
    net.create_stream_table(
        "probe", [("tag", "INT"), ("mark", "INT")], window=2 * EVERY)
    origin = net.node(net.addresses()[0]).engine

    def probe_tick():
        for tag in range(8):
            origin.stream_append("probe", (tag, int(origin.clock.now)))
        origin.set_timer(EVERY, probe_tick)

    origin.set_timer(0.35, probe_tick)
    return net


def run_load_leg(seed, lifetime):
    """One overloaded standing fan-in join; measure per-epoch lag."""
    net = build_load_net(seed)
    net.advance(EVERY)
    net.reset_counters()

    results = []
    handle = net.submit_sql(LOAD_SQL.format(l=int(lifetime)),
                            on_epoch=results.append)
    t0 = handle.t0
    arrivals = {}
    xbp = [0]

    def deliver(src, dst, wire):
        for part in parts_of(wire):
            inner = getattr(part, "payload", None)
            if not isinstance(inner, dict):
                continue
            op = inner.get("op")
            if op in ("deliver", "deliver_batch"):
                epoch = inner.get("epoch")
                if epoch is not None:
                    arrivals[epoch] = net.now
            elif op == "xbp":
                xbp[0] += 1

    net.net.on_deliver = deliver
    net.advance(lifetime + handle.plan.deadline + 5.0)
    counters = net.message_counters()

    e0 = min(arrivals) if arrivals else 0
    lags = [at - (t0 + (e - e0) * EVERY) for e, at in arrivals.items()]
    goodput = sum(len(r.rows) for r in results)
    return {
        "lags": lags,
        "epochs": len(results),
        "goodput_rows": goodput,
        "exchange_messages": counters.get("exchange_messages", 0),
        "service_wait": counters.get("service_wait", 0.0),
        "xbp": xbp[0],
    }


def run_load_comparison(seed, lifetime):
    # The static reference: a backpressure line no inflow tops.
    with mock.patch.object(engine_module, "BACKPRESSURE_ROWS_PER_SEC", math.inf):
        legs = {"static": run_load_leg(seed, lifetime)}
    legs["adaptive"] = run_load_leg(seed, lifetime)
    p95 = {v: percentile(leg["lags"], 0.95) for v, leg in legs.items()}
    improvement = p95["static"] / max(p95["adaptive"], 1e-9)
    assert improvement >= 1.2, (
        "adaptive p95 epoch lag {:.3f}s is not >=1.2x lower than "
        "static {:.3f}s (ratio {:.2f})".format(
            p95["adaptive"], p95["static"], improvement))
    assert legs["adaptive"]["exchange_messages"] < (
        legs["static"]["exchange_messages"]), "adaptive sent MORE messages"
    assert legs["adaptive"]["goodput_rows"] >= legs["static"]["goodput_rows"], (
        "adaptive lost more result rows than static")
    assert legs["static"]["xbp"] == 0, "the static leg sent xbp"
    assert legs["adaptive"]["xbp"] > 0, "backpressure never engaged"
    return legs, p95, improvement


# ----------------------------------------------------------------------
# Exhibit + metrics
# ----------------------------------------------------------------------
def exhibit(sweep, legs, p95, improvement, lifetime):
    text = ("Ext-L: admission control + owner backpressure\n"
            "(peak {:.0f} rows/s sweep; overload legs: {} nodes x "
            "{:.0f} rows/s, service {:.0f} ms/msg, lifetime {}s)\n\n"
            .format(PEAK_TOTAL_RATE, LOAD_NODES,
                    LOAD_ROWS_PER_TICK / LOAD_TICK,
                    SERVICE_TIME * 1e3, int(lifetime)))
    rows = []
    for s in sweep["rows"]:
        rows.append((
            "{:.0%}".format(s["fraction"]), round(s["observed_rate"], 1),
            s["replicas"],
            ",".join(d["kind"] for d in s["distinct_degradations"])
            or "exact",
            ("refused ({:,.0f} u/s)".format(s["refused_bound"])
             if s["refused_bound"] is not None else "admitted"),
        ))
    text += fmt_table(
        ["load", "rows/s", "replicas", "distinct outcome",
         "strict gate"], rows)
    text += (
        "\n\nsketch accuracy at peak: worst |err| {:.1f} of truth {} "
        "(documented rel. error {:.2%}, every epoch labeled "
        "approximate)\n\n".format(
            sweep["worst_abs_err"], sweep["truth"],
            sweep["sketch_rel_err"]))
    rows = []
    for v in ("static", "adaptive"):
        leg = legs[v]
        rows.append((
            v, leg["epochs"], leg["goodput_rows"],
            leg["exchange_messages"], round(leg["service_wait"], 1),
            round(p95[v], 3),
        ))
    text += fmt_table(
        ["leg", "epochs", "result rows", "exch msgs",
         "service wait (s)", "p95 lag (s)"], rows)
    text += ("\n\nadaptive p95 epoch lag {:.2f}x lower than static "
             "({} backpressure signals)\n".format(
                 improvement, legs["adaptive"]["xbp"]))
    return text


def metrics_from(sweep, legs, p95, improvement):
    return {
        "replica_path": "-".join(str(r) for r in sweep["replica_path"]),
        "scale_events": sweep["scale_events"],
        "degrade_mask": sweep["degrade_mask"],
        "refuse_mask": sweep["refuse_mask"],
        "cheap_untouched": True,
        "peak_sketch_only": True,
        "approx_labeled": True,
        "sketch_within_bounds": True,
        "sketch_rel_err": float(sweep["sketch_rel_err"]),
        "settled_epochs": sweep["settled_epochs"],
        "p95_lag_static": round(p95["static"], 4),
        "p95_lag_adaptive": round(p95["adaptive"], 4),
        "lag_improvement": round(improvement, 4),
        "exchange_msg_ratio": round(
            legs["static"]["exchange_messages"]
            / max(1, legs["adaptive"]["exchange_messages"]), 4),
        "adaptive_goodput_ge_static": True,
        "backpressure_engaged": legs["adaptive"]["xbp"] > 0,
    }


def test_admission_elasticity():
    begin("admission_elasticity")
    if full_scale():
        steps, lifetime = LOAD_STEPS, LOAD_LIFETIME
    else:
        steps, lifetime = SMOKE_LOAD_STEPS, SMOKE_LOAD_LIFETIME
    sweep = run_sweep(23, steps)
    legs, p95, improvement = run_load_comparison(31, lifetime)
    report("admission_elasticity",
           exhibit(sweep, legs, p95, improvement, lifetime),
           metrics_from(sweep, legs, p95, improvement))
