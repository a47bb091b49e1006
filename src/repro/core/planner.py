"""The physical planner: logical plans -> physical (timed) operator graphs.

Planning runs in two explicit phases:

1. **logical** (``core/logical.py``): the parsed
   :class:`~repro.core.logical.LogicalQuery` is resolved against the
   catalog into a normalized operator DAG with canonical expression
   forms -- name resolution, predicate pushdown, left-deep join
   ordering and equi-join key extraction, aggregate/project shape
   checks. No physical decision happens there, and near-duplicate
   queries (alias renames, flipped comparisons, reordered conjuncts,
   different output names) normalize to the *same* DAG.
2. **physical** (this module): the DAG is lowered node by node into a
   :class:`~repro.core.opgraph.QueryPlan` -- the access path (a
   one-shot plan whose every scan is pinned to one DHT partition key
   reads it by ``get`` and runs at its query site, with no broadcast
   and no exchange; see ``_site_access``), join strategies
   (symmetric-hash / fetch-matches / Bloom), exchange modes
   (rehash / aggregation tree), partial top-k, and flush deadlines from
   a dataflow-timing walk (when can an operator's inputs have
   arrived?), because a soft-state system flushes on clocks, not on
   end-of-stream tokens.

The logical phase's canonical signatures also drive **dataflow
sharing**: an eligible standing plan is stamped with its
``share_signature`` (``metadata["spine"]``) so the engine can run all
concurrent queries with the same signature and epoch phase on one
shared spine, and single-stream-scan plans with their
``prefix_signature`` (``metadata["prefix"]``) so spines that differ
only above the scan are fed by one scan stage (see
``core/sharing.py``). A threshold aggregate gets its
``family_signature`` (``metadata["family"]``) instead of a spine.

Recursive queries (transitive-closure shape) become cyclic graphs:
base rows enter a DHT-partitioned ``distinct``; novel rows feed both
result return and a join against the edge relation whose output cycles
back into the same ``distinct`` -- semi-naive evaluation as dataflow.
"""

import copy
import math

from repro.core.aggregates import AggSpec, FamilyAggregate
from repro.core.catalog import query_stats_key
from repro.core.logical import (
    AggCall,
    and_all as _and_all,
    build_logical_plan,
    split_where as _split_where,
)
from repro.core.opgraph import OpSpec, QueryPlan
from repro.db.expressions import ColumnRef, column_threshold, equi_join_pairs
from repro.db.schema import Column, Schema
from repro.db.types import ANY
from repro.db.window import pane_width
from repro.util.errors import CatalogError, PlanError

__all__ = ["plan_query"]

# Every per-query option the planner reads (the census of who sets each
# is in docs/ARCHITECTURE.md). Any other name is refused: share and
# prefix signatures hash the options, so an unread one would silently
# split a query off its spine and stage.
QUERY_OPTIONS = frozenset({
    "aggregation_tree", "join_strategy", "paned", "recursion_deadline",
    "shared",
})

# The offsets (seconds) the timing walk adds up to place flush
# deadlines. They bound, not measure: SCAN_READY covers plan
# dissemination, REHASH_XFER a multi-hop routed transfer or one get
# round-trip, TREE_XFER the extra per-hop hold time of an aggregation
# tree on a few-hundred-node overlay. Generous values trade a little
# latency for complete answers; the soft-state design makes tight
# values degrade to partial answers rather than errors.
SCAN_READY = 1.5
HOLD = 0.6
REHASH_XFER = 1.5
TREE_XFER = 6.0
RESULT_SEND = 0.4
COLLECT = 2.0
BLOOM_MERGE = 1.2
BLOOM_RELEASE = 1.0


class _Builder:
    """Accumulates op specs and the timing walk while lowering.

    ``ready`` is the walk's clock: the offset by which everything
    lowered so far can have produced its rows. A site-run plan's scans
    are ready after one get round-trip, a broadcast plan's after
    dissemination.
    """

    def __init__(self, site=False):
        self.site = site
        self.ready = REHASH_XFER if site else SCAN_READY
        self.specs = {}
        self.flush_offsets = {}
        self.bloom_broadcast_offset = None

    def add(self, kind, params=None, inputs=()):
        op_id = "op{}".format(len(self.specs) + 1)
        self.specs[op_id] = OpSpec(op_id, kind, params, inputs)
        return op_id

    def flush(self, op_id, after):
        """Advance the walk by ``after`` and flush ``op_id`` then."""
        self.ready += after
        self.flush_offsets[op_id] = self.ready


def plan_query(lq, catalog):
    """Compile a LogicalQuery against a catalog into a QueryPlan.

    The plan's ``stats_key`` is what the coordinator reports observed
    group cardinalities back under; pricing the plan is admission's
    job (``core/admission.py``).
    """
    unknown = sorted(set(lq.options) - QUERY_OPTIONS)
    if unknown:
        raise PlanError("unknown query option {}".format(
            ", ".join(repr(name) for name in unknown)))
    if lq.recursive is not None:
        plan = _plan_recursive(lq, catalog)
    else:
        plan = _plan_flat(lq, catalog)
    key = query_stats_key(lq)
    if key is not None:
        plan.metadata["stats_key"] = key
    if lq.sample_rate is not None:
        for spec in plan.ops_of_kind("scan"):
            spec.params["sample"] = lq.sample_rate
    return plan


# ----------------------------------------------------------------------
# Flat (non-recursive) lowering
# ----------------------------------------------------------------------
def _plan_flat(lq, catalog):
    logical = build_logical_plan(lq, catalog)
    site_keys = _site_access(logical, lq)
    b = _Builder(site=site_keys is not None)

    # Lower the DAG in its deterministic topological order. ``lowered``
    # maps each logical node (by identity) to its physical info: at
    # least {"op": root_op_id}; joins add "strategy",
    # aggregates add "partial"/"exchange"/"final" so the pane walk can
    # find the whole lowered cluster.
    lowered = {}
    schema = None
    sort_keys = []
    site = []  # the site fragment's (kind, params), in chain order
    result_id = None
    for node in logical.nodes:
        if node.kind == "scan":
            params = {"table": node.attrs["table"],
                      "alias": node.attrs["alias"]}
            if b.site:
                params["key"] = site_keys[id(node)]
            op_id = b.add("scan", params)
            lowered[id(node)] = {"op": op_id}
        elif node.kind == "filter":
            child = lowered[id(node.inputs[0])]["op"]
            op_id = b.add("select", {
                "predicate": node.attrs["predicate"],
                "schema": node.inputs[0].schema,
            }, [child])
            lowered[id(node)] = {"op": op_id}
        elif node.kind == "join":
            lowered[id(node)] = _lower_join(b, lq, node, lowered)
        elif node.kind == "aggregate":
            site, lowered[id(node)] = _lower_aggregation(
                b, lq, node, lowered)
            schema = _output_schema(lq)
            sort_keys = _compile_order_by(lq, schema)
        elif node.kind == "project":
            child = lowered[id(node.inputs[0])]["op"]
            op_id = b.add("project", {
                "exprs": node.attrs["exprs"],
                "schema": node.inputs[0].schema,
            }, [child])
            lowered[id(node)] = {"op": op_id}
            schema = _output_schema(lq)
            sort_keys = _compile_order_by(lq, schema)
        elif node.kind == "topk":
            # Partial top-k before the wire when there is a LIMIT to
            # exploit. Aggregate plans skip it (no logical topk node):
            # their group rows are mergeable states that only the query
            # site can rank after reconciling owners.
            child = lowered[id(node.inputs[0])]["op"]
            op_id = b.add("topk", {
                "sort_keys": sort_keys, "limit": lq.limit, "schema": schema,
            }, [child])
            b.flush(op_id, 0.2)
            lowered[id(node)] = {"op": op_id}
        elif node.kind == "output":
            # Aggregate answers refine as stragglers arrive, so the
            # query site keeps each node's latest batch, not appends.
            child = lowered[id(node.inputs[0])]["op"]
            result_id = b.add("result", {"replace": bool(site)}, [child])
            b.flush(result_id, 0.0 if b.site else RESULT_SEND)
            lowered[id(node)] = {"op": result_id}
        else:  # pragma: no cover - build_logical_plan emits no other kind
            raise PlanError("unknown logical node kind {!r}".format(node.kind))
    _drop_unconsumed(b, result_id)
    # A site-run plan's result op hands its rows to the coordinator with
    # no wire in between, so its answer is whole once that op has
    # flushed; the close timer, armed after the flush timers, fires
    # right behind it. A fixed close (not "when the gets answer") keeps
    # the answer's time a function of the plan, not of the route.
    deadline = b.ready if b.site else b.ready + COLLECT

    mode = "continuous" if lq.every else "oneshot"
    standing = mode == "continuous"
    epoch_overlap = _epoch_overlap(b, lq) if standing else 1
    pane = None
    metadata = {"columns": [name for _item, name in lq.select_items]}
    if standing:
        pane = _mark_paned(b, logical, lowered, lq)
        if lq.options.get("shared") is not False:
            # Whole-dataflow sharing: queries whose canonical DAGs and
            # epoch geometry match run on one spine, demultiplexed only
            # at result return. Bloom plans stay private -- their
            # per-epoch coordinator round-trip is keyed to one qid.
            if b.bloom_broadcast_offset is None:
                # Prefix sharing: single-stream-table plans also carry
                # the scan-stage signature, so queries with *different*
                # predicates/groups over the same (table, geometry) can
                # share one scan stage with a demux into private tails
                # (a threshold aggregate's: its predicate family's).
                family = None
                scans = logical.scan_nodes()
                if (len(scans) == 1
                        and scans[0].attrs["table_def"].source == "stream"):
                    prefix = logical.prefix_signature()
                    if prefix is not None:
                        suffix = _wave_suffix(
                            pane, lq, scans[0].attrs["table_def"])
                        metadata["prefix"] = prefix + suffix
                        family = logical.family_signature()
                if family is not None:
                    metadata["family"] = family + suffix
                else:
                    metadata["spine"] = logical.share_signature()

    if sort_keys or lq.limit is not None:
        # The global sort/cut a partial top-k can only approximate.
        site.append(("topk", {
            "sort_keys": sort_keys, "limit": lq.limit, "schema": schema}))
    if b.bloom_broadcast_offset is not None:
        metadata["bloom_broadcast_offset"] = b.bloom_broadcast_offset
    return QueryPlan(
        list(b.specs.values()), result_id, mode=mode, every=lq.every,
        window=lq.window, lifetime=lq.lifetime, flush_offsets=b.flush_offsets,
        deadline=deadline, metadata=metadata, epoch_overlap=epoch_overlap,
        pane=pane, site_specs=[OpSpec(kind, kind, params) for kind, params in site],
    )


def family_plan(plan):
    """A member's plan as its predicate family runs it for every
    member: no filter, a ``family_partial``, one
    :class:`~repro.core.aggregates.FamilyAggregate` through exchange,
    tree and final, and a result op that splits it per member. Op ids,
    timing and geometry stay the member's."""
    (select,) = plan.ops_of_kind("select")
    column, op, _constant = column_threshold(select.params["predicate"])
    (partial,) = plan.ops_of_kind("groupby_partial")
    family = FamilyAggregate(partial.params["agg_specs"])
    specs = {}
    for spec in plan.specs.values():
        kind, params, inputs = spec.kind, spec.params, spec.inputs
        if spec is partial:
            kind, inputs = "family_partial", select.inputs
            params = dict(params, column=column, op=op, family=family)
        elif "combine" in params:
            params = dict(params, combine=dict(
                params["combine"], agg_specs=[family]))
        elif kind == "groupby_final":
            params = dict(params, agg_specs=[family])
        elif kind == "result":
            params = dict(params, family=True)
        if spec is not select:
            specs[spec.op_id] = OpSpec(spec.op_id, kind, params, inputs)
    shared = copy.copy(plan)
    shared.specs = specs
    return shared


def _drop_unconsumed(b, root_id):
    """Drop every spec nothing reads. A fetch-matches join gets its
    inner table's rows by DHT get, so the scan (and filter) lowered for
    that table feed nothing. Op ids stay as they are: they name exchange
    namespaces."""
    while True:
        read = {i for spec in b.specs.values() for i in spec.inputs}
        unread = [op_id for op_id in b.specs
                  if op_id != root_id and op_id not in read]
        if not unread:
            return
        for op_id in unread:
            del b.specs[op_id]


def _wave_suffix(pane, lq, table_def):
    """What a stage's scan waves are, beyond the prefix signature.

    A stage clones its scan from its first member, so its members must
    read the same waves. A paned scan emits each row once, in pane
    batches; an unpaned scan whose window exceeds EVERY re-emits the
    whole window each epoch. The two share a prefix signature (same
    table and geometry), so the unpaned, overlapping one gets a suffix
    -- the paned and the tumbling stages keep their keys as they are.
    """
    window = lq.window if lq.window is not None else table_def.window
    if pane is None and window is not None and window > lq.every:
        return ":whole"
    return ""


def _site_access(logical, lq):
    """The access-path choice: ``{id(scan node): key}`` when the plan
    runs at its query site, else None (broadcast, scan everywhere).

    A one-shot plan whose every scan is pinned to one DHT partition key
    (``LogicalPlan.pinned_keys``) needs nothing from any node but those
    keys' owners. Each scan becomes one ``get`` issued at the query
    site, every operator runs there, and nothing is broadcast: O(log N)
    nodes touched per scan instead of N. Continuous plans keep their
    standing scans, and a query that names its join strategy keeps the
    broadcast path that strategy is defined on.
    """
    if lq.every is not None or lq.options.get("join_strategy", "auto") != "auto":
        return None
    pinned = logical.pinned_keys()
    if len(pinned) != len(logical.scan_nodes()):
        return None
    return pinned


_STANDING_XFER_MARGIN = 1.0  # flush window + worst simulated RTT


def _epoch_overlap(b, lq):
    """Epoch ring width N for a continuous plan.

    ``N`` is how many epoch states a standing execution keeps live at
    once. The standing path rolls every operator over at each boundary,
    and an epoch is sealed when its N-th successor opens, so N must
    cover the plan's flush horizon:

        N = ceil(worst (flush offset + margin) / period)

    A flush whose output still has to *cross an exchange* pads its
    offset with a transfer margin: its rows travel tagged with the
    producing epoch and must land before a receiver seals that epoch.
    Result-bound flushes need no margin -- their rows go direct to the
    query site, which collects by epoch tag until its own deadline.
    Bloom-stage plans ride the same math: their filter flush feeds the
    query site and the release control message lands well before the
    downstream exchange flushes the N already accounts for.
    """
    consumers = {}
    for spec in b.specs.values():
        for input_id in spec.inputs:
            consumers.setdefault(input_id, []).append(spec)

    def feeds_exchange(op_id, seen=None):
        seen = seen if seen is not None else set()
        if op_id in seen:
            return False
        seen.add(op_id)
        for consumer in consumers.get(op_id, ()):
            if consumer.kind == "exchange":
                return True
            if feeds_exchange(consumer.op_id, seen):
                return True
        return False

    horizon = 0.0
    for op_id, offset in b.flush_offsets.items():
        margin = _STANDING_XFER_MARGIN if feeds_exchange(op_id) else 0.0
        horizon = max(horizon, offset + margin)
    # No ceiling here: the plan records the *true* horizon, and a
    # standing execution keeps that many epoch states live, clamped at
    # dataflow.RING_MAX_OVERLAP.
    return max(1, math.ceil(horizon / lq.every - 1e-9))


def _mark_paned(b, logical, lowered, lq):
    """Mark a standing plan for paned sliding-window aggregation.

    Paned evaluation applies when the window overlaps the period
    (``WINDOW > EVERY``, commensurable on the millisecond grid) and a
    stream-table scan's rows reach an ``aggregate`` through
    pane-transparent operators. The walk runs over the *logical* DAG
    (one consumer per node by construction) and maps each step onto its
    lowered physical specs: ``filter``/``project`` nodes are stateless
    row operators, a ``join`` is transparent when it lowered to
    fetch-matches and was entered from the probe side (the probe row's
    pane rides the asynchronous DHT get).

    The panes go *distributed*, since grouped aggregation always feeds
    an exchange into a ``groupby_final``: the lowered
    ``groupby_partial`` ships each pane's increment once (when new rows
    touched it), the exchange stamps every message with its batch's
    pane so delivery can put it back, and the final holds the window's pane
    partials at the group's owner and assembles each epoch's window
    there -- so the overlap never crosses the wire again. Tree combiners
    merge same-(epoch, pane) partials mid-route; their routing keys drop
    the per-epoch rendezvous salt, because a window's panes must
    accumulate at a *stable* owner across the epochs that share them.
    Every other stateful operator (top-k, Bloom stages, hash joins)
    re-reads its window from scratch each epoch.

    Returns the first marked geometry, or None when the plan keeps
    from-scratch evaluation (the ``paned`` query option forces that).
    """
    if lq.options.get("paned") is False:
        return None
    every = lq.every
    if every is None:
        return None
    consumers = logical.consumers()
    marked = None
    for node in logical.nodes:
        if node.kind != "scan":
            continue
        table_def = node.attrs["table_def"]
        if table_def.source != "stream":
            continue
        window = lq.window if lq.window is not None else table_def.window
        if window is None or window <= every:
            continue
        width = pane_width(window, every)
        if width is None:
            continue
        geometry = {
            "width": width,
            "every": round(every / width),
            "window": round(window / width),
        }
        agg_info = _pane_chain(consumers, lowered, node)
        if agg_info is None:
            continue
        b.specs[lowered[id(node)]["op"]].params["paned"] = geometry
        b.specs[agg_info["partial"]].params["paned"] = geometry
        exchange = b.specs[agg_info["exchange"]]
        exchange.params["paned"] = geometry
        if "combine" in exchange.params:
            exchange.params["combine"] = dict(
                exchange.params["combine"], paned=True
            )
        b.specs[agg_info["final"]].params["paned"] = geometry
        if marked is None:
            marked = geometry
    return marked


def _pane_chain(consumers, lowered, scan_node):
    """Walk from a scan's logical node to the aggregate above it.

    Returns the aggregate's lowered info, or None when the rows do not
    reach an aggregate through pane-transparent operators (e.g. they
    cross a symmetric-hash exchange, whose rehash scatters a pane's rows
    across owners mid-epoch, or a top-k). The operators passed on the
    way carry no mark: each batch carries its own pane.
    """
    node = scan_node
    while True:
        downstream = consumers.get(node, ())
        if len(downstream) != 1:
            return None
        parent = downstream[0]
        info = lowered[id(parent)]
        if parent.kind in ("filter", "project") or (
                parent.kind == "join" and info["strategy"] == "fm"
                and parent.inputs[0] is node):
            node = parent
            continue
        if parent.kind == "aggregate":
            return info
        return None


def _lower_join(b, lq, node, lowered):
    """Lower one logical join; returns its lowered info.

    On a site-run plan both inputs are already at the query site, so
    the join is a symmetric hash join fed directly: no exchange.
    """
    left_op = lowered[id(node.inputs[0])]["op"]
    right_op = lowered[id(node.inputs[1])]["op"]
    pairs = node.attrs["pairs"]
    residual = node.attrs["residual"]
    left_schema = node.attrs["left_schema"]
    right_schema = node.attrs["right_schema"]
    right_def = node.attrs["right_def"]
    fm = _fm_applicable(right_def, pairs, right_schema)
    strategy = "shj" if b.site else lq.options.get("join_strategy", "auto")
    if strategy == "auto":
        strategy = "fm" if fm else "shj"

    if strategy == "fm":
        if not fm:
            raise PlanError("fetch-matches needs {} partitioned on the "
                            "join column".format(right_def.name))
        inner = node.inputs[1]
        if inner.kind == "filter":
            # Inner rows come by get, not through the inner leg's scan
            # (dropped unconsumed): its pushed-down filter checks them.
            residual = _and_all([p for p in (residual, inner.attrs["predicate"]) if p is not None])
        join_id = _fetch_matches(b, left_op, left_schema, right_def,
                                 right_schema, pairs, residual)
        return {"op": join_id, "strategy": "fm"}

    info = {"strategy": strategy}
    if strategy == "bloom":
        left_op, right_op = _plan_bloom_stages(
            b, left_op, left_schema, right_op, right_schema, pairs)
    info["op"] = _hash_join(b, left_op, left_schema, right_op, right_schema,
                            pairs, residual, rehash=not b.site)
    return info


def _fetch_matches(b, probe_op, probe_schema, table_def, table_schema,
                   pairs, residual, dedup_keys=False):
    """Each probe row gets its matches from the DHT table partitioned
    on the join column: one get round-trip."""
    params = {
        "probe_schema": probe_schema,
        "table": table_def.name,
        "table_schema": table_schema,
        "probe_key": ColumnRef(pairs[0][0]),
        "residual": residual,
    }
    if dedup_keys:
        params["dedup_keys"] = True
    join_id = b.add("fetch_matches", params, [probe_op])
    b.ready += REHASH_XFER
    return join_id


def _hash_join(b, left_op, left_schema, right_op, right_schema, pairs,
               residual, rehash=True):
    """A symmetric hash join; ``rehash`` first routes both legs to the
    join key's owner (one routed transfer)."""
    left_keys = [ColumnRef(left) for left, _right in pairs]
    right_keys = [ColumnRef(right) for _left, right in pairs]
    inputs = [left_op, right_op]
    if rehash:
        inputs = [
            b.add("exchange", {
                "mode": "rehash",
                "key": {"kind": "exprs", "exprs": keys, "schema": schema},
            }, [op])
            for op, keys, schema in ((left_op, left_keys, left_schema),
                                     (right_op, right_keys, right_schema))
        ]
        b.ready += REHASH_XFER
    return b.add("shj", {
        "left_schema": left_schema,
        "right_schema": right_schema,
        "left_keys": left_keys,
        "right_keys": right_keys,
        "residual": residual,
    }, inputs)


def _plan_bloom_stages(b, left_op, left_schema, right_op, right_schema,
                       pairs):
    """Insert bloom_stage ops on both legs; returns the new legs."""
    # Both stages share a filter group so the query site merges their
    # partials together and each side receives the *other's* filter.
    group = "bloom:{}".format(left_op)
    stages = [
        b.add("bloom_stage", {
            "side": side,
            "key_exprs": [ColumnRef(pair[i]) for pair in pairs],
            "schema": schema, "capacity": 512, "fp_rate": 0.02,
            "group": group,
        }, [op])
        for i, (side, op, schema) in enumerate((
            ("left", left_op, left_schema), ("right", right_op, right_schema)))
    ]
    b.ready += 0.3
    for stage in stages:
        b.flush_offsets[stage] = b.ready
    b.bloom_broadcast_offset = b.ready + BLOOM_MERGE
    b.ready = b.bloom_broadcast_offset + BLOOM_RELEASE
    return stages


def _fm_applicable(right_def, pairs, right_schema):
    if right_def.source != "dht" or len(pairs) != 1:
        return False
    partition_index = right_def.schema.index_of(right_def.partition_key)
    join_index = right_schema.index_of(pairs[0][1])
    return partition_index == join_index


def _lower_aggregation(b, lq, node, lowered):
    """Lower one logical aggregate; returns (site chain, lowered-info).

    Partials fold where the rows are and an exchange ships them to each
    group's owner; on a site-run plan every row is already at the query
    site, so the partial feeds the final directly.
    """
    group_exprs = list(node.attrs["group_by"])
    agg_specs = []
    for item, name in lq.select_items:
        if isinstance(item, AggCall):
            agg_specs.append(AggSpec(item.func_name, item.arg, name,
                                     item.params))

    child = lowered[id(node.inputs[0])]["op"]
    schema = node.inputs[0].schema
    partial_id = b.add("groupby_partial", {
        "group_exprs": group_exprs, "agg_specs": agg_specs, "schema": schema,
    }, [child])
    b.flush(partial_id, HOLD)

    # The ablation knob: aggregation_tree=False ships partials straight
    # to each group's owner with no in-network combining (same answer,
    # more messages converging on the owner).
    exchange_id = None
    if not b.site:
        use_tree = lq.options.get("aggregation_tree", True)
        exchange_params = {"mode": "tree" if use_tree else "rehash",
                           "key": {"kind": "group"}}
        if use_tree:
            exchange_params["combine"] = {"agg_specs": agg_specs}
        exchange_id = b.add("exchange", exchange_params, [partial_id])
        b.ready += TREE_XFER if use_tree else REHASH_XFER

    final_id = b.add("groupby_final", {"agg_specs": agg_specs},
                     [exchange_id or partial_id])
    b.flush(final_id, HOLD)

    # Final operators emit mergeable (group_values, states) rows; the
    # site fragment reconciles owners (ring healing can split a group
    # across two acting owners), finalizes, applies HAVING and projects
    # into SELECT order -- all over a handful of group rows.
    internal_schema = _aggregation_internal_schema(lq, group_exprs, agg_specs)
    select_exprs = []
    for item, name in lq.select_items:
        if isinstance(item, AggCall):
            select_exprs.append(ColumnRef(name))
        else:
            rewritten = _rewrite_group_expr(item, group_exprs, internal_schema)
            try:
                rewritten.compile_batch(internal_schema)
            except CatalogError:
                raise PlanError(
                    "SELECT item {!r} is neither an aggregate nor derivable "
                    "from the GROUP BY columns".format(item.display())
                )
            select_exprs.append(rewritten)
    site = [("groupby_final", {"agg_specs": agg_specs, "finalize": True})]
    if lq.having is not None:
        site.append(("select", {
            "predicate": lq.having, "schema": internal_schema}))
    site.append(("project", {"exprs": select_exprs, "schema": internal_schema}))
    info = {"op": final_id, "partial": partial_id,
            "exchange": exchange_id, "final": final_id}
    return site, info


def _aggregation_internal_schema(lq, group_exprs, agg_specs):
    """Schema of final group-by output rows: group cols then agg cols."""
    columns = []
    for i, expr in enumerate(group_exprs):
        if isinstance(expr, ColumnRef):
            name = expr.name
        else:
            name = "__group{}".format(i)
        columns.append(Column(name, ANY))
    for spec in agg_specs:
        columns.append(Column(spec.output_name, ANY))
    return Schema(columns)


def _rewrite_group_expr(expr, group_exprs, internal_schema):
    """Map a SELECT-list group expression onto the internal schema."""
    for i, g in enumerate(group_exprs):
        if g.display() == expr.display():
            return ColumnRef(internal_schema.columns[i].name)
    # Not literally a group expression: compile as-is; it may still
    # reference group columns by name (e.g. an arithmetic over them).
    return expr


def _output_schema(lq):
    return Schema(Column(name, ANY) for _item, name in lq.select_items)


def _compile_order_by(lq, schema):
    sort_keys = list(lq.order_by)
    # Validate references now so a bad ORDER BY fails at plan time.
    for expr, _desc in sort_keys:
        expr.compile_batch(schema)
    return sort_keys


# ----------------------------------------------------------------------
# Recursive planning (transitive-closure shape)
# ----------------------------------------------------------------------
def _plan_recursive(lq, catalog):
    spec = lq.recursive
    base, step = spec.base, spec.step
    b = _Builder()

    # --- base leg: scan -> select -> project into the recursive shape
    if len(base.tables) != 1:
        raise PlanError("recursive base must read exactly one table")
    base_table, base_alias = base.tables[0]
    base_def = catalog.lookup(base_table)
    base_schema = base_def.schema.qualify(base_alias or base_table)
    base_scan = b.add("scan", {"table": base_table, "alias": base_alias})
    op = base_scan
    if base.where is not None:
        op = b.add("select", {"predicate": base.where, "schema": base_schema}, [op])
    base_exprs = [item for item, _n in base.select_items]
    op = b.add("project", {"exprs": base_exprs, "schema": base_schema}, [op])

    rec_columns = [name for _i, name in base.select_items]
    rec_schema = Schema(Column(n, ANY) for n in rec_columns)

    # --- the fixpoint core: row-partitioned distinct
    to_distinct = b.add("exchange", {"mode": "rehash", "key": {"kind": "row"}}, [op])
    distinct_id = b.add("distinct", {"report_progress": True}, [to_distinct])

    # --- result branch
    out_exprs = [item for item, _n in lq.select_items]
    out_schema_in = rec_schema.qualify(spec.name)
    result_chain = distinct_id
    if lq.where is not None:
        result_chain = b.add("select", {
            "predicate": lq.where, "schema": out_schema_in,
        }, [result_chain])
    result_chain = b.add("project", {
        "exprs": out_exprs, "schema": out_schema_in,
    }, [result_chain])
    result_id = b.add("result", {}, [result_chain])

    # --- recursive step: join novel rows with the edge table
    rec_alias, edge_table, edge_alias = _recursive_step_shape(step, spec.name)
    edge_def = catalog.lookup(edge_table)
    edge_schema = edge_def.schema.qualify(edge_alias or edge_table)
    probe_schema = rec_schema.qualify(rec_alias)
    conjuncts = _split_where(step.where)
    pred = _and_all(conjuncts)
    pairs, residual = equi_join_pairs(pred, probe_schema, edge_schema)
    if not pairs:
        raise PlanError("recursive step needs an equi-join with the edge table")
    step_exprs = [item for item, _n in step.select_items]
    out_schema = probe_schema.concat(edge_schema)

    if _fm_applicable(edge_def, pairs, edge_schema):
        join_id = _fetch_matches(b, distinct_id, probe_schema, edge_def,
                                 edge_schema, pairs, residual,
                                 dedup_keys=True)
    else:
        edge_scan = b.add("scan", {"table": edge_table, "alias": edge_alias})
        join_id = _hash_join(b, distinct_id, probe_schema, edge_scan,
                             edge_schema, pairs, residual)

    step_project = b.add("project", {
        "exprs": step_exprs, "schema": out_schema,
    }, [join_id])
    back_ex = b.add("exchange", {"mode": "rehash", "key": {"kind": "row"}},
                    [step_project])
    # Close the cycle: the back edge feeds the same distinct operator.
    b.specs[distinct_id].inputs.append(back_ex)

    deadline = lq.options.get("recursion_deadline", 45.0)
    metadata = {"columns": [name for _item, name in lq.select_items]}
    return QueryPlan(
        list(b.specs.values()), result_id, mode="recursive", flush_offsets={},
        deadline=deadline, metadata=metadata,
    )


def _recursive_step_shape(step, rec_name):
    """Identify which FROM entry is the recursive table; return aliases."""
    if len(step.tables) != 2:
        raise PlanError("recursive step must join the recursive table with one table")
    (t1, a1), (t2, a2) = step.tables
    if t1 == rec_name:
        return (a1 or t1), t2, a2
    if t2 == rec_name:
        return (a2 or t2), t1, a1
    raise PlanError("recursive step does not reference {!r}".format(rec_name))
