"""Differential fuzz suite for shared standing dataflows.

Every trial draws a random fleet schedule -- different-predicate
queries (plus some identical twins), staggered submission instants,
early stops, injected crash/recovery events, and (in some trials) a
region-labelled topology running proximity routing plus two-level
regional aggregation trees -- and runs it TWICE from the same seed:
once with sharing on (spines + prefix stages + exchange multiplexing)
and once with every query submitted under the ``{"shared": False}``
option, the ablation where each runs its own fully private plan.
Sharing is an optimization, never a semantics change, so each query's
per-epoch results must be identical between the two legs.

Comparison discipline:

* crash-free trials compare every reported epoch of every query,
  row for row (float-tolerant ordering only);
* trials with injected crashes compare the epochs whose reports were
  fully flushed BEFORE the first disturbance. Later epochs depend on
  when the recovered node re-adopts the plan (a refresh-period race
  that resolves differently run to run), so their rows are out of
  scope -- but both legs must keep answering;
* queries stopped early compare the epochs flushed before the stop.

Both legs run on one scheduler, so a boundary or window bug common to
both would cancel out of that comparison. Crash-free trials therefore
also check each leg against *ground truth*: the tickers log every
``(timestamp, node, v)`` they append, and every reported epoch of every
never-stopped query must equal a plain-Python recomputation of its
aggregate over ``v > thr`` in ``(t_k - window, t_k]``. An epoch with a
qualifying row stamped within a microsecond of either window edge is
left out of that check (not tie-broken): whether such a row makes the
wave depends on which same-instant event fired first on each node.

Every assertion is stamped with the trial seed; a failing seed is also
appended to ``tests/fuzz_failures/sharing_fuzz.txt`` (uploaded as a CI
artifact) so the exact trial can be replayed with::

    PIER_FUZZ_SEED=<seed> PIER_FUZZ_TRIALS=1 \\
        python -m pytest tests/test_sharing_fuzz.py

Trial count/seed are env-tunable: ``PIER_FUZZ_TRIALS`` (default 50)
and ``PIER_FUZZ_SEED`` (base seed, default 94082).
"""

import math
import os
import pathlib
import random

import pytest

from repro.core.engine import EngineConfig
from repro.core.network import PierConfig, PierNetwork
from repro.dht.config import DhtConfig

TRIALS = int(os.environ.get("PIER_FUZZ_TRIALS", "50"))
BASE_SEED = int(os.environ.get("PIER_FUZZ_SEED", "94082"))
FAILURES = pathlib.Path(__file__).parent / "fuzz_failures" / "sharing_fuzz.txt"

# Three select-list shapes: same scan prefix, different tails/spines.
FORMS = (
    "SELECT SUM(v) AS total, COUNT(*) AS n FROM s WHERE v > {thr}",
    "SELECT COUNT(*) AS n FROM s WHERE v > {thr}",
    "SELECT MAX(v) AS top, COUNT(*) AS n FROM s WHERE v > {thr}",
)
# The same three select lists over the qualifying values, in Python.
TRUTH = (
    lambda vs: (sum(vs), len(vs)),
    lambda vs: (len(vs),),
    lambda vs: (max(vs), len(vs)),
)
EDGE_TIE = 1e-6  # a row this close to a window edge is a same-instant race
TAIL = " EVERY {e} SECONDS WINDOW {w} SECONDS LIFETIME {life} SECONDS"
PRIVATE = {"shared": False}  # the ablation leg: every plan unstamped


def make_schedule(seed):
    """One reproducible trial: fleet + stops + crash/recovery events."""
    rng = random.Random(seed)
    every = rng.choice([5.0, 10.0])
    window = every * rng.choice([1, 2, 3])
    lifetime = every * rng.randint(3, 4)
    nodes = rng.randint(5, 8)
    queries = []
    for _i in range(rng.randint(3, 6)):
        if queries and rng.random() < 0.3:
            # Identical twin: same form AND threshold -> shares a spine.
            twin = rng.choice(queries)
            form, thr = twin["form"], twin["thr"]
        else:
            form = rng.randrange(len(FORMS))
            thr = round(rng.uniform(0.5, nodes - 0.5), 2)
        submit_at = every * rng.randint(0, 2)
        if rng.random() < 0.2:
            submit_at += every / 2.0  # off-phase: its own stage grid
        w = window if rng.random() < 0.8 else window + every
        stop_at = None
        if rng.random() < 0.25:
            stop_at = submit_at + rng.uniform(0.5, 0.9) * lifetime
        queries.append({
            "form": form, "thr": thr, "window": w,
            "submit_at": submit_at, "stop_at": stop_at,
        })
    # Anchor: the first query submits at t=0 and runs its whole life,
    # so every trial has fully-flushed epochs left to compare even if
    # the draws above stop everything else early.
    queries[0]["submit_at"] = 0.0
    queries[0]["stop_at"] = None
    crashes = []
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            # Victims are never node 0 -- that's every query's site.
            # Crashes land after the earliest epochs' reports flushed
            # (flush deadlines run ~11s past the boundary), so every
            # trial keeps a comparable pre-disturbance window.
            at = lifetime + 13.0 + rng.uniform(0, 2 * every)
            crashes.append({
                "victim": rng.randrange(1, nodes),
                "at": at,
                "recover_at": at + rng.uniform(every, 2 * every),
            })
    tick = rng.choice([1.7, 2.3, 3.1])
    # Regional flavor (drawn last so earlier draws stay seed-stable):
    # some trials run on a region-labelled topology with proximity
    # routing and two-level regional trees on BOTH legs -- sharing
    # must stay invisible under backbone latencies and region-local
    # combiner rendezvous too.
    regions = None
    if rng.random() < 0.3:
        k = rng.randint(2, 3)
        regions = {"node{}".format(i): "r{}".format(i % k)
                   for i in range(nodes)}
    return {
        "seed": seed, "nodes": nodes, "every": every, "window": window,
        "lifetime": lifetime, "queries": queries, "crashes": crashes,
        "tick": tick, "regions": regions,
    }


def _sql(schedule, q):
    return FORMS[q["form"]].format(thr=q["thr"]) + TAIL.format(
        e=schedule["every"], w=q["window"], life=schedule["lifetime"]
    )


def _install_ticker(net, address, base, period, log):
    step = [0]

    def tick():
        engine = net.node(address).engine
        step[0] += 1
        v = base + (step[0] % 4)
        engine.stream_append("s", (v,))
        log.append((engine.clock.now, address, v))
        engine.set_timer(period, tick)

    net.node(address).engine.set_timer(0.1, tick)


def run_leg(schedule, shared):
    """Run one leg of the differential; returns per-query epoch rows."""
    regional = schedule["regions"] is not None
    config = PierConfig(
        dht=DhtConfig(proximity_routing=regional),
        engine=EngineConfig(regional_trees=regional),
    )
    net = PierNetwork(nodes=schedule["nodes"], seed=schedule["seed"],
                      config=config, regions=schedule["regions"])
    retention = max(q["window"] for q in schedule["queries"])
    net.create_stream_table(
        "s", [("v", "FLOAT")], window=2 * retention + schedule["every"]
    )
    addresses = net.addresses()
    appended = []  # (timestamp, node, v) of every row, for ground truth
    for i, address in enumerate(addresses):
        _install_ticker(net, address, float(i), schedule["tick"], appended)
    site = addresses[0]

    events = []
    for i, q in enumerate(schedule["queries"]):
        events.append((q["submit_at"], 0, "submit", i))
        if q["stop_at"] is not None:
            events.append((q["stop_at"], 1, "stop", i))
    for c in schedule["crashes"]:
        events.append((c["at"], 2, "crash", c["victim"]))
        events.append((c["recover_at"], 3, "recover", c["victim"]))
    events.sort()

    handles = {}
    outputs = {}
    deadline = 0.0
    for at, _prio, kind, arg in events:
        if at > net.now:
            net.advance(at - net.now)
        if kind == "submit":
            results = []
            handle = net.submit_sql(_sql(schedule, schedule["queries"][arg]),
                                    node=site, on_epoch=results.append,
                                    options=None if shared else PRIVATE)
            assert handle.plan.standing, "seed {}".format(schedule["seed"])
            if shared:
                assert handle.plan.metadata.get("prefix"), (
                    "seed {}: query {} not stamped prefix-shareable".format(
                        schedule["seed"], arg)
                )
            handles[arg] = handle
            outputs[arg] = results
            deadline = max(deadline, handle.plan.deadline)
        elif kind == "stop":
            handles[arg].stop()
        elif kind == "crash":
            net.crash_node(addresses[arg])
        elif kind == "recover":
            net.recover_node(addresses[arg])
            _install_ticker(net, addresses[arg], float(arg),
                            schedule["tick"], appended)

    end = max(q["submit_at"] for q in schedule["queries"]) \
        + schedule["lifetime"] + deadline + 3.0
    if end > net.now:
        net.advance(end - net.now)
    for handle in handles.values():
        handle.stop()
    return {
        "per_query": [
            {r.epoch: sorted(r.rows) for r in outputs[i]}
            for i in range(len(schedule["queries"]))
        ],
        "deadline": deadline,
        "t0": [handles[i].t0 for i in range(len(schedule["queries"]))],
        "appended": appended,
        "rows_scanned": sum(
            n.engine.rows_scanned for n in net.nodes.values()
        ),
    }


def _rows_match(a, b):
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


def compare_legs(schedule, shared, ablation):
    """Per-query, per-epoch equality under the comparison discipline."""
    seed = schedule["seed"]
    first_crash = min((c["at"] for c in schedule["crashes"]), default=None)
    compared = 0
    for i, q in enumerate(schedule["queries"]):
        got = shared["per_query"][i]
        want = ablation["per_query"][i]
        if first_crash is None and q["stop_at"] is None:
            assert set(got) == set(want), (
                "seed {}: query {} epoch sets differ (shared {}, "
                "ablation {})".format(seed, i, sorted(got), sorted(want))
            )
        epochs = set(got) | set(want)
        for k in sorted(epochs):
            report_at = q["submit_at"] + k * schedule["every"] \
                + shared["deadline"]
            if q["stop_at"] is not None and report_at >= q["stop_at"] - 0.5:
                continue  # report raced the stop broadcast
            if first_crash is not None and report_at >= first_crash - 0.5:
                continue  # disturbed: re-adoption timing is a race
            assert k in got and k in want, (
                "seed {}: query {} epoch {} missing from {} leg".format(
                    seed, i, k, "shared" if k not in got else "ablation")
            )
            assert _rows_match(got[k], want[k]), (
                "seed {}: query {} epoch {} diverged under sharing "
                "({!r} vs {!r})".format(seed, i, k, got[k], want[k])
            )
            compared += 1
    assert compared > 0, (
        "seed {}: schedule left nothing to compare".format(seed)
    )
    # Sharing must never scan more than the private fleet. Every scan
    # charges what it examines: a row once when it arrives and once per
    # epoch whose wave looks at it. Shared and private executions alike
    # first build at the first epoch anyone reads (a subscriber's epoch
    # 1), so a shared leg's waves are a subset of the private fleet's.
    assert shared["rows_scanned"] <= ablation["rows_scanned"], (
        "seed {}: shared leg scanned {} rows vs {} private".format(
            seed, shared["rows_scanned"], ablation["rows_scanned"])
    )


def check_ground_truth(schedule, leg, name):
    """Every reported epoch of every never-stopped query on ``leg``
    against a recomputation from the tickers' own log."""
    seed = schedule["seed"]
    checked = 0
    for i, q in enumerate(schedule["queries"]):
        if q["stop_at"] is not None:
            continue
        passing = [(ts, v) for ts, _node, v in leg["appended"]
                   if v > q["thr"]]
        for k, rows in leg["per_query"][i].items():
            hi = leg["t0"][i] + k * schedule["every"]
            lo = hi - q["window"]
            if any(min(abs(ts - lo), abs(ts - hi)) < EDGE_TIE
                   for ts, _v in passing):
                continue
            vs = [v for ts, v in passing if lo < ts <= hi]
            # No qualifying row anywhere: no partial, so no answer row.
            want = [TRUTH[q["form"]](vs)] if vs else []
            assert _rows_match(rows, want), (
                "seed {}: query {} epoch {} on the {} leg is {!r}, ground "
                "truth {!r}".format(seed, i, k, name, rows, want)
            )
            checked += 1
    assert checked > 0, (
        "seed {}: no epoch clear of window-edge ties".format(seed)
    )
    return checked


def _record_failure(seed, exc):
    FAILURES.parent.mkdir(parents=True, exist_ok=True)
    with FAILURES.open("a", encoding="utf-8") as fh:
        fh.write(
            "seed {}: {}\n  replay: PIER_FUZZ_SEED={} PIER_FUZZ_TRIALS=1 "
            "python -m pytest tests/test_sharing_fuzz.py\n".format(
                seed, exc, seed)
        )


def _run_trial(seed):
    schedule = make_schedule(seed)
    try:
        shared = run_leg(schedule, shared=True)
        ablation = run_leg(schedule, shared=False)
        compare_legs(schedule, shared, ablation)
        if not schedule["crashes"]:
            check_ground_truth(schedule, shared, "shared")
            check_ground_truth(schedule, ablation, "ablation")
    except AssertionError as exc:
        _record_failure(seed, exc)
        raise


@pytest.mark.parametrize("trial", range(TRIALS))
def test_sharing_differential(trial):
    _run_trial(BASE_SEED + trial)


# Seeds whose shared leg scanned more than the private fleet, every
# answer equal, while spines and stages still built the unread
# submission-instant epoch: late adopters on an unpaned plan (1 333 vs
# 1 330, 382 vs 369), and an unread wave over rows the bounded stream
# log had evicted by the private twin's first epoch (1 052 vs 1 026).
@pytest.mark.parametrize("seed", [94096, 777163, 220411])
def test_pinned_seeds(seed):
    _run_trial(seed)
