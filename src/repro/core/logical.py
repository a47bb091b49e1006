"""The logical plan: a normalized operator DAG built before any
physical decision.

Planning happens in two explicit phases. The SQL frontend (or the
algebraic API) produces a :class:`LogicalQuery`; :func:`build_logical_plan`
resolves it against the catalog into a :class:`LogicalPlan` -- a small
DAG of :class:`LogicalOp` nodes (scan / filter / join / aggregate /
project / topk / output) whose expressions are kept in *canonical
form*. Only then does ``planner.plan_query`` lower the DAG into the
physical :class:`~repro.core.opgraph.QueryPlan`, picking join
strategies, exchange modes and flush deadlines.

Canonicalization exists so that *near-duplicate* queries -- the same
query written with different table aliases, flipped comparisons,
reordered conjuncts or different output column names -- normalize to
the *same* DAG. Each node carries a structural ``signature()`` (a
short digest over its kind, canonical parts and child signatures), and
``LogicalPlan.share_signature()`` folds the root signature together
with the epoch geometry (EVERY/WINDOW) and the semantically relevant
query options. Two standing queries with equal share signatures
compute identical per-epoch in-network state, so the engine can run
them on one shared dataflow spine and demultiplex only at result
delivery (see ``core/sharing.py``).

Canonicalization is deliberately conservative: it applies only
semantics-preserving rewrites (alias positionalization, ``a > b`` ->
``b < a``, operand ordering for ``=``/``!=``, flattening + sorting of
AND/OR conjunct lists). It does NOT reorder arithmetic (``+``/``*``
over floats is not associative) and it does not try to prove deeper
equivalences; a missed sharing opportunity costs duplicated work, a
false positive would corrupt answers.
"""

import hashlib

from repro.db.expressions import (
    BinaryOp,
    ColumnRef,
    FuncCall,
    Literal,
    UnaryOp,
    column_threshold,
    conjuncts as _conjuncts,
    equi_join_pairs,
)
from repro.util.errors import PlanError


class AggCall:
    """An aggregate in a SELECT list: ``SUM(expr)`` / ``COUNT(*)``.

    ``params`` are trailing integer arguments that parameterize sketch
    geometry, e.g. ``APPROX_TOPK(addr, 5, 4, 1024)`` (k, depth, width)
    or ``APPROX_COUNT_DISTINCT(addr, 12)`` (HLL precision). Exact
    aggregates take no parameters.
    """

    def __init__(self, func_name, arg, params=()):
        self.func_name = func_name.upper()
        self.arg = arg  # Expr or None for COUNT(*)
        self.params = tuple(params)

    def display(self):
        arg = "*" if self.arg is None else self.arg.display()
        if self.params:
            arg = ", ".join([arg] + [str(p) for p in self.params])
        return "{}({})".format(self.func_name, arg)

    def __repr__(self):
        return "AggCall({})".format(self.display())


class LogicalQuery:
    """A resolved query, independent of surface syntax.

    ``sample_rate`` is not a query option: only the admission policy's
    degradation ladder sets it (``core/admission.py``), and it always
    labels the answer approximate. None keeps every row.
    """

    def __init__(self, tables, select_items, where=None, group_by=None,
                 having=None, order_by=None, limit=None, every=None,
                 window=None, lifetime=None, options=None, recursive=None):
        self.tables = tables  # [(table_name, alias)]
        self.select_items = select_items  # [(Expr | AggCall, output_name)]
        self.where = where
        self.group_by = group_by if group_by is not None else []
        self.having = having
        self.order_by = order_by if order_by is not None else []  # [(Expr, desc)]
        self.limit = limit
        self.every = every
        self.window = window
        self.lifetime = lifetime
        self.options = options if options is not None else {}
        self.recursive = recursive  # RecursiveSpec or None
        self.sample_rate = None


class RecursiveSpec:
    """``WITH RECURSIVE name AS (base UNION step)`` components."""

    def __init__(self, name, base, step):
        self.name = name
        self.base = base  # LogicalQuery (single table, no aggregates)
        self.step = step  # LogicalQuery (join of `name` with one table)


class LogicalOp:
    """One node of the logical DAG.

    ``parts`` are the node's canonical-form strings (predicates, join
    keys, aggregate calls ...); together with the child signatures they
    define ``signature()``. ``attrs`` carries the resolved objects the
    physical lowering needs (Expr trees, schemas, table defs) -- they
    never participate in the signature.
    """

    __slots__ = ("kind", "parts", "inputs", "attrs", "schema", "_sig")

    def __init__(self, kind, parts=(), inputs=(), attrs=None, schema=None):
        self.kind = kind
        self.parts = [str(p) for p in parts]
        self.inputs = list(inputs)
        self.attrs = attrs if attrs is not None else {}
        self.schema = schema
        self._sig = None

    def signature(self):
        if self._sig is None:
            h = hashlib.sha1()
            h.update(self.kind.encode("utf-8"))
            h.update(b"\x1f")
            h.update("\x1f".join(self.parts).encode("utf-8"))
            h.update(b"\x1e")
            h.update("\x1e".join(
                child.signature() for child in self.inputs
            ).encode("utf-8"))
            self._sig = h.hexdigest()[:16]
        return self._sig

    def __repr__(self):
        return "LogicalOp({}, parts={!r})".format(self.kind, self.parts)


class LogicalPlan:
    """The normalized DAG plus the query it came from.

    ``nodes`` is a deterministic topological order (inputs before
    consumers); ``root`` is the final ``output`` node. The physical
    lowering iterates ``nodes`` in order, so equal logical plans lower
    to op graphs with identical op ids and flush offsets on every node
    of the cluster -- a prerequisite for sharing a dataflow spine.
    """

    def __init__(self, query, nodes, root):
        self.query = query
        self.nodes = nodes
        self.root = root

    def consumers(self):
        """Map each node to the list of nodes that read it."""
        out = {}
        for node in self.nodes:
            for child in node.inputs:
                out.setdefault(child, []).append(node)
        return out

    def share_signature(self):
        """Digest identifying the *shareable body* of a standing query.

        Covers the full canonical DAG (including finishing-only parts:
        HAVING / ORDER BY / LIMIT ride in the ``output`` node -- sharing
        stays conservative) plus the epoch geometry and every query
        option except the ``shared`` knob itself. Output column names
        and LIFETIME are deliberately excluded: neither affects the
        in-network batches, and per-subscriber lifetimes are handled at
        the spine's fan-out edge.
        """
        h = hashlib.sha1()
        h.update(self.root.signature().encode("utf-8"))
        h.update("|{}|{}".format(self.query.every, self.query.window)
                 .encode("utf-8"))
        h.update(self._options_digest())
        return h.hexdigest()[:16]

    def _options_digest(self):
        """What both signatures hash of the query's settings: every
        option except the ``shared`` knob, and the admission sample
        rate (a sampled query never shares with its unsampled twin)."""
        options = [
            (k, v) for k, v in self.query.options.items() if k != "shared"
        ]
        if self.query.sample_rate is not None:
            options.append(("sample_rate", self.query.sample_rate))
        return repr(sorted(options)).encode("utf-8")

    def scan_nodes(self):
        return [n for n in self.nodes if n.kind == "scan"]

    def prefix_signature(self):
        """Digest identifying the *shareable prefix* of a standing query.

        Where :meth:`share_signature` covers the whole canonical DAG (so
        only identical bodies share), the prefix signature covers only
        the part every single-table standing query has in common: the
        scan over one stream table, plus the epoch geometry and the
        non-``shared`` query options. Queries with *different*
        predicates/groups but the same (table, EVERY, WINDOW) get the
        same prefix signature, so the engine can run one shared
        scan-stage per node and demux rows into each query's private
        tail (see ``core/sharing.py``). Returns None for plans with no
        single shareable scan (joins, recursive plans).
        """
        scans = self.scan_nodes()
        if len(scans) != 1:
            return None
        h = hashlib.sha1()
        h.update(b"prefix:")
        h.update(scans[0].signature().encode("utf-8"))
        h.update("|{}|{}".format(self.query.every, self.query.window)
                 .encode("utf-8"))
        h.update(self._options_digest())
        return h.hexdigest()[:16]

    def family_signature(self):
        """Digest of a standing query's *predicate family*, or None: a
        scan, a whole WHERE that is one :func:`column_threshold`, SUM /
        COUNT / AVG / MIN / MAX with or without GROUP BY, and the
        output. It covers the prefix signature and the DAG above the
        scan with the constant taken out (the column by position)."""
        if [n.kind for n in self.nodes] != [
                "scan", "filter", "aggregate", "output"]:
            return None
        _scan, where, agg, output = self.nodes
        threshold = column_threshold(where.attrs["predicate"])
        if threshold is None or any(
                call.func_name not in ("SUM", "COUNT", "AVG", "MIN", "MAX")
                or call.params
                for call in agg.attrs["agg_calls"]):
            return None
        name, op, _constant = threshold
        return hashlib.sha1("family:{}|{}{}?|{}".format(
            self.prefix_signature(), where.schema.index_of(name), op,
            "\x1f".join(agg.parts + output.parts)).encode("utf-8"),
        ).hexdigest()[:16]

    def pinned_keys(self):
        """The partition-key value each DHT-table scan is pinned to.

        A scan is pinned when one conjunct of its pushed-down filter is
        ``partition key = constant``: every row the filter can pass is
        stored under that key, so one ``get`` reads all the scan needs.
        Returns ``{id(scan node): key}`` for the pinned scans only.
        """
        consumers = self.consumers()
        pinned = {}
        for scan in self.scan_nodes():
            table_def = scan.attrs["table_def"]
            above = consumers.get(scan, ())
            if table_def.source != "dht" or above[0].kind != "filter":
                continue
            key_index = table_def.schema.index_of(table_def.partition_key)
            key_type = table_def.schema.columns[key_index].type
            key = _pinned_key(above[0].attrs["predicate"], scan.schema,
                              key_index, key_type)
            if key is not None:
                pinned[id(scan)] = key
        return pinned


def _pinned_key(predicate, schema, key_index, key_type):
    """The constant of the first ``key column = constant`` conjunct of
    ``predicate``, or None.

    A constant counts only when it has the one Python type the column
    stores: a published row's key is hashed as stored, so ``5`` would
    look for a FLOAT key under another id than ``5.0``.
    """
    if len(key_type.python_types) != 1:
        return None
    for conj in _conjuncts(predicate):
        if not (isinstance(conj, BinaryOp) and conj.op == "="):
            continue
        for ref, literal in ((conj.left, conj.right), (conj.right, conj.left)):
            if (isinstance(ref, ColumnRef) and isinstance(literal, Literal)
                    and type(literal.value) is key_type.exact_type
                    and schema.has_column(ref.name)
                    and schema.index_of(ref.name) == key_index):
                return literal.value
    return None


# ----------------------------------------------------------------------
# Canonical expression forms
# ----------------------------------------------------------------------
class Canonicalizer:
    """Render expressions in alias-independent canonical form.

    Table qualifiers map to positional markers (``t0``, ``t1`` ... by
    FROM order), so ``SELECT s.v FROM ticks s`` and ``SELECT t.v FROM
    ticks t`` canonicalize identically. A bare column is qualified onto
    ``t0`` only in single-table queries; in joins it is left as written
    (resolving it would need schema search, and ambiguity there is a
    correctness risk -- conservatism over sharing).
    """

    def __init__(self, tables):
        self.markers = {}
        for i, (table_name, alias) in enumerate(tables):
            self.markers[alias or table_name] = "t{}".format(i)
        self.single = len(tables) == 1

    def column(self, name):
        if "." in name:
            qualifier, column = name.split(".", 1)
            marker = self.markers.get(qualifier)
            if marker is not None:
                return "{}.{}".format(marker, column)
            return name
        if self.single:
            return "t0.{}".format(name)
        return name

    def expr(self, e):
        if e is None:
            return ""
        if isinstance(e, ColumnRef):
            return self.column(e.name)
        if isinstance(e, Literal):
            return e.display()
        if isinstance(e, UnaryOp):
            return "({} {})".format(e.op, self.expr(e.operand))
        if isinstance(e, FuncCall):
            return "{}({})".format(
                e.name, ", ".join(self.expr(a) for a in e.args)
            )
        if isinstance(e, BinaryOp):
            return self._binary(e)
        return e.display()

    def _binary(self, e):
        op = e.op
        if op in ("AND", "OR"):
            terms = sorted(self.expr(t) for t in _flatten(e, op))
            return "({})".format((" {} ".format(op)).join(terms))
        left, right = e.left, e.right
        # Direction-normalize inequalities; order-normalize symmetric ops.
        if op == ">":
            op, left, right = "<", right, left
        elif op == ">=":
            op, left, right = "<=", right, left
        ls, rs = self.expr(left), self.expr(right)
        if op in ("=", "!=") and rs < ls:
            ls, rs = rs, ls
        return "({} {} {})".format(ls, op, rs)

    def agg(self, call):
        arg = "*" if call.arg is None else self.expr(call.arg)
        return "{}({}|{})".format(
            call.func_name, arg, ",".join(str(p) for p in call.params)
        )

    def order_key(self, key):
        expr, desc = key
        return "{} {}".format(self.expr(expr), "DESC" if desc else "ASC")


def _flatten(e, op):
    if isinstance(e, BinaryOp) and e.op == op:
        return _flatten(e.left, op) + _flatten(e.right, op)
    return [e]


# ----------------------------------------------------------------------
# WHERE-clause plumbing (shared with the physical planner)
# ----------------------------------------------------------------------
def split_where(where):
    return [] if where is None else _conjuncts(where)


def partition_conjuncts(conjunct_list, schema):
    """(AND of conjuncts fully resolvable in schema, the remainder)."""
    mine, rest = [], []
    for conj in conjunct_list:
        if all(schema.has_column(ref) for ref in conj.column_refs()):
            mine.append(conj)
        else:
            rest.append(conj)
    return and_all(mine), rest


def extract_join_pairs(conjunct_list, left_schema, right_schema):
    pred = and_all(conjunct_list)
    if pred is None:
        return [], []
    pairs, residual = equi_join_pairs(pred, left_schema, right_schema)
    return pairs, split_where(residual)


def join_residuals(conjunct_list, out_schema):
    """Split leftovers into (applicable at this join, still deferred)."""
    applicable, deferred = [], []
    for conj in conjunct_list:
        if all(out_schema.has_column(ref) for ref in conj.column_refs()):
            applicable.append(conj)
        else:
            deferred.append(conj)
    return applicable, deferred


def and_all(conjunct_list):
    result = None
    for conj in conjunct_list:
        result = conj if result is None else BinaryOp("AND", result, conj)
    return result


# ----------------------------------------------------------------------
# Building the DAG
# ----------------------------------------------------------------------
def build_logical_plan(lq, catalog):
    """Resolve a LogicalQuery against the catalog into a LogicalPlan.

    Performs everything that does not require a physical decision:
    name resolution, predicate pushdown, left-deep join ordering with
    equi-join key extraction, aggregate/project shape checks. Raises
    :class:`~repro.util.errors.CatalogError` for unknown tables and
    :class:`~repro.util.errors.PlanError` for shape errors (cartesian
    products, aggregates outside aggregation context, ...).
    """
    if not lq.tables:
        raise PlanError("query needs at least one table")
    canon = Canonicalizer(lq.tables)
    nodes = []

    def add(node):
        nodes.append(node)
        return node

    conjunct_list = split_where(lq.where)

    # Access path per table, with pushed-down single-table predicates.
    legs = []
    for table_name, alias in lq.tables:
        table_def = catalog.lookup(table_name)
        schema = table_def.schema.qualify(alias or table_name)
        node = add(LogicalOp(
            "scan", parts=[table_name],
            attrs={"table": table_name, "alias": alias,
                   "table_def": table_def},
            schema=schema,
        ))
        mine, conjunct_list = partition_conjuncts(conjunct_list, schema)
        if mine is not None:
            node = add(LogicalOp(
                "filter", parts=[canon.expr(mine)],
                inputs=[node], attrs={"predicate": mine}, schema=schema,
            ))
        legs.append((node, table_def))

    # Left-deep joins over the FROM order, keyed on equi-join conjuncts.
    node, _table_def = legs[0]
    for right_node, right_def in legs[1:]:
        left_schema = node.schema
        right_schema = right_node.schema
        pairs, conjunct_list = extract_join_pairs(
            conjunct_list, left_schema, right_schema
        )
        if not pairs:
            raise PlanError(
                "no equi-join predicate between {} and {} (cartesian "
                "products are not supported at Internet scale)".format(
                    left_schema.names, right_schema.names
                )
            )
        out_schema = left_schema.concat(right_schema)
        applicable, conjunct_list = join_residuals(conjunct_list, out_schema)
        residual = and_all(applicable)
        pair_parts = sorted(
            "{}={}".format(canon.column(left), canon.column(right))
            for left, right in pairs
        )
        node = add(LogicalOp(
            "join",
            parts=["&".join(pair_parts), canon.expr(residual)],
            inputs=[node, right_node],
            attrs={"pairs": pairs, "residual": residual,
                   "right_def": right_def, "left_schema": left_schema,
                   "right_schema": right_schema},
            schema=out_schema,
        ))

    # Anything left in the WHERE applies after all joins.
    residual = and_all(conjunct_list)
    if residual is not None:
        node = add(LogicalOp(
            "filter", parts=[canon.expr(residual)],
            inputs=[node], attrs={"predicate": residual}, schema=node.schema,
        ))

    # Aggregate XOR project. Group-by and aggregate lists stay
    # positional in the canonical parts: downstream (gvals, states)
    # rows are positional tuples, so column order is semantic.
    has_aggs = any(isinstance(item, AggCall)
                   for item, _name in lq.select_items)
    if has_aggs or lq.group_by:
        agg_calls = [item for item, _name in lq.select_items
                     if isinstance(item, AggCall)]
        if not agg_calls:
            raise PlanError(
                "GROUP BY without aggregates is just DISTINCT; use it"
            )
        node = add(LogicalOp(
            "aggregate",
            parts=["|".join(canon.expr(g) for g in lq.group_by),
                   "|".join(canon.agg(call) for call in agg_calls)],
            inputs=[node],
            attrs={"group_by": list(lq.group_by), "agg_calls": agg_calls},
            schema=node.schema,
        ))
    else:
        exprs = []
        for item, _name in lq.select_items:
            if isinstance(item, AggCall):
                raise PlanError("aggregate outside aggregation context")
            exprs.append(item)
        node = add(LogicalOp(
            "project",
            parts=["|".join(canon.expr(e) for e in exprs)],
            inputs=[node], attrs={"exprs": exprs}, schema=node.schema,
        ))

    if lq.order_by and lq.limit is not None and not (has_aggs or lq.group_by):
        node = add(LogicalOp(
            "topk",
            parts=["|".join(canon.order_key(k) for k in lq.order_by),
                   str(lq.limit)],
            inputs=[node], attrs={}, schema=node.schema,
        ))

    # The output node carries the finishing-only clauses so the share
    # signature covers them (conservative: queries that differ only in
    # HAVING / ORDER BY / LIMIT could share their in-network body, but
    # proving that is not worth the risk). Output *names* are excluded.
    root = add(LogicalOp(
        "output",
        parts=["|".join(canon.order_key(k) for k in lq.order_by),
               str(lq.limit),
               canon.expr(lq.having)],
        inputs=[node], attrs={}, schema=node.schema,
    ))
    return LogicalPlan(lq, nodes, root)
