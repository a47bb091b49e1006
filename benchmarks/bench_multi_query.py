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
fleet as private executions for the cost-of-not-sharing exhibit. A
control query over a *different* window geometry rides along and must
stay off the spine.

Acceptance properties asserted here:

* every query, shared, unshared or the control, answers each epoch as
  the rows its testbed appended (``ticker_net``'s ``RowLog``) do,
  recomputed in plain Python: sharing is invisible to answers;
* at Q=100 the shared fleet's rows scanned and exchange hops are each
  <= 1.5x the single-query run (the fleet costs about one query);
* the unshared fleet pays per-query: strictly more scans and exchange
  hops than the shared fleet at the same Q;
* the different-geometry control never joins the spine and still
  answers.

A second sweep exercises sharing BELOW the whole plan. Q queries with
pairwise-different WHERE thresholds cannot share a spine (their
dataflows differ), but they all scan the same stream table on the same
epoch grid, so the engines run ONE shared prefix stage (scan -> demux)
per node; and since each WHERE is one ``rate_kbps > constant``, the
stage feeds ONE predicate family, which folds each row once for every
threshold and ships one partial per node. The sweep submits Q in
{1, 10, 100} different-predicate queries, measures fleet rows scanned
(bar: the 100-query fleet scans <= 1.5x ONE query's rows) and the
wire messages that carry its exchange traffic (bar: <= 1.5x ONE
query's), and runs the same fleet with every query opted out
(``{"shared": False}``) for the cost exhibit.

Runs under pytest: 8 nodes and Q in {1, 100} by default, 12 nodes and
the sweeps above with ``PIER_BENCH_SCALE=full``.
"""

from benchmarks._harness import begin, fmt_table, full_scale, report, ticker_net
from benchmarks.perf.reference import same_rows
from repro.core.sharing import FamilyRecord, SpineRecord, StageRecord

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
EPOCHS = list(range(1, int(LIFETIME // EVERY) + 1))

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


def threshold(i):
    """Thresholds land inside the ticker's value range so every query
    filters a different (nonempty) subset -- no two plans canonicalize
    together, yet all share the one scan stage."""
    return 8.0 + (i % DISTINCT_PREDICATES)


def prefix_sql(i):
    """A per-query predicate: same scan + epoch grid, different tail."""
    return (
        "SELECT SUM(rate_kbps) AS total_rate, COUNT(*) AS samples "
        "FROM node_stats WHERE rate_kbps > {} ".format(threshold(i))
        + TAIL.format(int(EVERY), int(WINDOW), int(LIFETIME))
    )


def variant_keeps(_i, rate):
    """Every variant's WHERE clause, in Python."""
    return 5 < rate < 500


def check_answers(label, run, keeps, window=WINDOW):
    """Assert query i of ``run`` answered every epoch of its lifetime
    with the SUM and COUNT of the rates ``run``'s tickers appended in
    the epoch's window that ``keeps(i, rate)`` passes."""
    for i, epochs in enumerate(run["per_query"]):
        assert sorted(epochs) == EPOCHS, "{} query {}: epochs {}".format(
            label, i, sorted(epochs))
        for k, rows in epochs.items():
            hi = run["t0"] + k * EVERY
            rates = [v for (v,) in run["log"].window(
                "node_stats", hi - window, hi) if keeps(i, v)]
            want = [(sum(rates), len(rates))] if rates else []
            assert same_rows(rows, want), (
                "{} query {}: epoch {} answered {!r}, the appended rows "
                "{!r}".format(label, i, k, rows, want))


def build_net(seed, nodes):
    """The ticker testbed and its log, the first window filled."""
    net, log = ticker_net(seed, nodes, retention=2 * WINDOW,
                          period=SAMPLE_PERIOD)
    net.advance(WINDOW)
    return net, log


def _moved(net):
    sent = net.message_counters()
    return {"messages": sent.get("messages_sent", 0),
            "exchange_messages": sent.get("exchange_messages", 0),
            "rows_scanned": sum(n.engine.rows_scanned
                                for n in net.nodes.values())}


def _measured(label, net, log, before, fleet, keeps):
    """What a fleet moved, once every query's answers are checked."""
    run = {k: v - before[k] for k, v in _moved(net).items()}
    run.update(queries=len(fleet), log=log, t0=fleet[0].t0,
               per_query=[{k: r.rows for k, r in h.results.items()}
                          for h in fleet])
    check_answers(label, run, keeps)
    return run


def run_fleet(seed, nodes, q, shared):
    """Submit ``q`` near-duplicates at one instant; measure the fleet."""
    net, log = build_net(seed, nodes)
    before = _moved(net)
    site = net.any_address()
    options = None if shared else {"shared": False}
    fleet = []
    for i in range(q):
        handle = net.submit_sql(variant_sql(i), node=site, options=options)
        assert handle.plan.standing
        if shared:
            assert handle.plan.metadata.get("spine"), (
                "near-duplicate {} was not stamped shareable".format(i)
            )
        else:
            assert handle.plan.metadata.get("spine") is None
        fleet.append(handle)
    assert len({h.plan.metadata.get("spine") for h in fleet}) == 1, (
        "near-duplicates canonicalized to different signatures"
    )
    net.advance(LIFETIME + fleet[0].plan.deadline + 5.0)
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
    run = _measured("shared={} Q={}".format(shared, q), net, log, before,
                    fleet, variant_keeps)
    run.update(tree_forwards=forwards, tree_hop_shortcuts=shortcuts)
    return run


def run_control(seed, nodes):
    """A different-geometry query next to the fleet: own spine, own
    answers, each epoch over its own (wider) window. Unmeasured -- it
    exists to prove sharing has a boundary."""
    net, log = build_net(seed, nodes)
    site = net.any_address()
    fleet = net.submit_sql(variant_sql(0), node=site)
    control = net.submit_sql(CONTROL_SQL, node=site)
    assert (control.plan.metadata.get("spine")
            != fleet.plan.metadata.get("spine")), (
        "different-geometry control joined the fleet's spine"
    )
    net.advance(LIFETIME + control.plan.deadline + 5.0)
    check_answers("control", {
        "per_query": [{k: r.rows for k, r in control.results.items()}],
        "log": log, "t0": control.t0}, variant_keeps, 2 * WINDOW)


def tap_exchange_wire(net):
    """Count the wire messages that carry exchange payloads.

    A lone ``route``, or a ``hop_bundle`` with at least one exchange
    part, counts once however many parts it carries: co-routed fleet
    members whose same-instant parts share a hop's bundle cost one
    message, not one per member.
    """
    count = [0]

    def is_exchange(message):
        return (getattr(message, "kind", None) == "route"
                and message.payload.get("op") in ("deliver", "deliver_batch"))

    def on_deliver(_src, _dst, message):
        parts = getattr(message, "parts", None) or (message,)
        if any(is_exchange(part) for part in parts):
            count[0] += 1

    net.net.on_deliver = on_deliver
    return count


def run_prefix_fleet(seed, nodes, q, shared):
    """Submit ``q`` different-predicate queries at one instant.

    ``shared=False`` submits the identical fleet under
    ``{"shared": False}`` -- every query fully private -- for the cost
    exhibit.
    """
    net, log = build_net(seed, nodes)
    before = _moved(net)
    exchange_wire = tap_exchange_wire(net)
    site = net.any_address()
    fleet = []
    for i in range(q):
        handle = net.submit_sql(prefix_sql(i), node=site,
                                options=None if shared else {"shared": False})
        assert handle.plan.standing
        if shared:
            assert handle.plan.metadata.get("prefix"), (
                "query {} was not stamped prefix-shareable".format(i)
            )
        fleet.append(handle)
    if shared:
        assert len({h.plan.metadata.get("prefix") for h in fleet}) == 1, (
            "different-predicate fleet split into multiple prefix keys"
        )
        assert len({h.plan.metadata.get("family") for h in fleet}) == 1, (
            "different-threshold fleet split into several families"
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
            # The stage feeds one family, which serves every predicate.
            (family,) = stages[0].members()
            assert isinstance(family, FamilyRecord)
            served = len(family.layout.cuts)
            assert served == min(q, DISTINCT_PREDICATES), (
                "{}: family folds {} of {} predicates".format(
                    address, served, min(q, DISTINCT_PREDICATES))
            )
            assert len(family.subscribers) == q
            assert readers == 1
        else:
            assert not any(isinstance(rec, (SpineRecord, StageRecord))
                           for rec in engine.records.values())
            assert readers == q  # every private query reads the table itself
    net.advance(LIFETIME + fleet[0].plan.deadline + 5.0 - 2 * EVERY - 1.0)
    run = _measured("prefix shared={} Q={}".format(shared, q), net, log,
                    before, fleet, lambda i, rate: rate > threshold(i))
    run["exchange_wire"] = exchange_wire[0]
    return run


def run_prefix_sweep(seed, nodes, qs):
    stats = {"shared": {}}
    for q in qs:
        stats["shared"][q] = run_prefix_fleet(seed, nodes, q, shared=True)
    stats["unshared"] = run_prefix_fleet(seed, nodes, max(qs), shared=False)
    return stats


def check_prefix_sweep(stats, qs):
    """The <=1.5x bars (every answer was checked as it ran)."""
    unshared = stats["unshared"]
    base = stats["shared"][min(qs)]
    big = stats["shared"][max(qs)]
    ratios = {
        "prefix_scan_ratio_100": (big["rows_scanned"]
                                  / max(1, base["rows_scanned"])),
        "prefix_xmsg_ratio_100": (big["exchange_wire"]
                                  / max(1, base["exchange_wire"])),
        "prefix_unshared_scan_x": (unshared["rows_scanned"]
                                   / max(1, big["rows_scanned"])),
    }
    # The headline bar: 100 DIFFERENT queries scan about one query's rows.
    assert ratios["prefix_scan_ratio_100"] <= 1.5, (
        "different-predicate fleet scanned {:.2f}x the single query".format(
            ratios["prefix_scan_ratio_100"])
    )
    # And its exchange traffic rides about one query's wire messages.
    assert ratios["prefix_xmsg_ratio_100"] <= 1.5, (
        "different-predicate fleet sent {:.2f}x the exchange wire "
        "messages".format(ratios["prefix_xmsg_ratio_100"])
    )
    assert unshared["rows_scanned"] > big["rows_scanned"], (
        "sharing-off ablation should pay per-query scans"
    )
    return ratios


def run_sweep(seed, nodes, qs):
    stats = {"shared": {}, "unshared": {}}
    for q in qs:
        stats["shared"][q] = run_fleet(seed, nodes, q, shared=True)
    stats["unshared"][UNSHARED_Q] = run_fleet(
        seed, nodes, min(UNSHARED_Q, max(qs)), shared=False
    )
    run_control(seed, nodes)
    return stats


def check_sweep(stats, qs):
    """The <=1.5x sharing bar and the unshared cost exhibit (every
    answer was checked as it ran)."""
    shared = stats["shared"]
    unshared = stats["unshared"][UNSHARED_Q]
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
    text = ("Common-subplan sharing: one scan stage under Q "
            "different-predicate queries\n({} nodes, same geometry; every "
            "query its own WHERE threshold, all one\n predicate family -- "
            "one fold for every threshold)\n\n".format(nodes))
    rows = []
    for q in qs:
        leg = stats["shared"][q]
        rows.append(("staged/Q={}".format(q), q, leg["messages"],
                     leg["exchange_messages"], leg["exchange_wire"],
                     leg["rows_scanned"]))
    un = stats["unshared"]
    rows.append(("ablation/Q={}".format(un["queries"]), un["queries"],
                 un["messages"], un["exchange_messages"],
                 un["exchange_wire"], un["rows_scanned"]))
    text += fmt_table(
        ["config", "queries", "messages", "exch msgs (hops)",
         "exch wire msgs", "rows scanned"],
        rows,
    )
    text += (
        "\n\nper-query results: every staged and sharing-off query "
        "identical to the appended rows\n"
        "{} different predicates vs 1 (staged): rows scanned {:.2f}x "
        "(bar: <= 1.5x), exchange wire messages {:.2f}x (bar: <= 1.5x)\n"
        "sharing off at Q={}: {:.2f}x the scans of the staged fleet\n"
        .format(
            max(qs), ratios["prefix_scan_ratio_100"],
            ratios["prefix_xmsg_ratio_100"], un["queries"],
            ratios["prefix_unshared_scan_x"])
    )
    return text


def exhibit(nodes, qs, stats, ratios):
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
        "\n\nper-query results: every shared, unshared and control query "
        "identical to the appended rows\n"
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


def test_multi_query():
    begin("multi_query")
    if full_scale():
        nodes, qs, pqs = NODES, QS, PREFIX_QS
    else:
        nodes, qs, pqs = SMOKE_NODES, SMOKE_QS, SMOKE_PREFIX_QS
    stats = run_sweep(seed=7, nodes=nodes, qs=qs)
    ratios = check_sweep(stats, qs)
    pstats = run_prefix_sweep(seed=7, nodes=nodes, qs=pqs)
    ratios.update(check_prefix_sweep(pstats, pqs))
    metrics = {key: round(ratios[key], 4) for key in (
        "scan_ratio_100", "xmsg_ratio_100", "unshared_scan_x",
        "unshared_xmsg_x", "hop_shortcut_frac", "prefix_scan_ratio_100",
        "prefix_xmsg_ratio_100", "prefix_unshared_scan_x")}
    metrics.update(parity=True, prefix_parity=True)
    report("multi_query",
           exhibit(nodes, qs, stats, ratios) + "\n"
           + prefix_exhibit(nodes, pqs, pstats, ratios), metrics)
