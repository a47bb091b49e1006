"""Aggregate functions with decomposable partial states.

In-network aggregation needs every aggregate in the classic
init/add/merge/final form (Gray et al.'s algebraic aggregates): nodes
accumulate local partials, the aggregation tree *merges* partials at
every hop, and only the root runs *final*. AVG therefore carries
(sum, count), never a ratio.

Paned sliding-window aggregation adds a second axis to the protocol:
when a continuous query's window overlaps its epoch period
(``WINDOW > EVERY``), per-epoch deltas are folded into *panes* of width
``gcd(WINDOW, EVERY)`` and each epoch's answer is assembled from pane
partials instead of from raw rows. Aggregates that are *invertible*
(``invertible = True``) additionally support :meth:`Aggregate.unmerge`,
which subtracts a pane's partial back out of a running window state --
so advancing the window costs O(panes changed) merges instead of
re-merging the whole window. Non-invertible aggregates (MIN, MAX,
COUNT DISTINCT) fall back to re-merging the window's live panes, which
is still O(panes) per epoch rather than O(rows).
"""

from repro.util.errors import PlanError
from repro.util.sketches import CountMinSketch, HyperLogLog


class Aggregate:
    """One aggregate function in decomposable form.

    Subclasses implement the algebraic protocol: ``init`` produces an
    empty partial state, ``add`` folds one input value into a state,
    ``merge`` combines two states, and ``final`` turns a state into the
    answer. States must be immutable values (numbers, tuples,
    frozensets) so partials can be shipped, held, and snapshotted
    without defensive copying. Invertible aggregates set
    ``invertible = True`` and implement :meth:`unmerge`.
    """

    name = "abstract"

    #: Whether :meth:`unmerge` can subtract a previously merged state
    #: back out. Only invertible aggregates get the O(1)-per-pane
    #: sliding-window path; the rest re-merge live panes.
    invertible = False

    def init(self):
        """Return the empty partial state (the fold's identity)."""
        raise NotImplementedError

    def add(self, state, value):
        """Fold one input value into ``state``; returns the new state."""
        raise NotImplementedError

    def merge(self, left, right):
        """Combine two partial states into one."""
        raise NotImplementedError

    def unmerge(self, state, part):
        """Remove a previously merged ``part`` from ``state``.

        Only meaningful when ``invertible``; the paned window keeps the
        raw pane partial around exactly so it can be handed back here
        when the pane slides out of the window. ``unmerge(merge(s, p),
        p)`` must equal ``s`` (up to float rounding).
        """
        raise PlanError("{} is not invertible".format(self.name))

    def add_many(self, state, values):
        """Fold a column of values into ``state`` (vectorized ``add``).

        The default loops ``add`` in order, so overrides must stay
        *exactly* equal to that loop -- including float accumulation
        order -- not merely mathematically equivalent. Counting
        aggregates override it with integer arithmetic; SUM, MIN and
        MAX with the same loop, ``add`` inlined.
        """
        add = self.add
        for value in values:
            state = add(state, value)
        return state

    def final(self, state):
        """Finish a state into the user-visible value (identity here)."""
        return state


class CountStar(Aggregate):
    """COUNT(*): counts rows; the only aggregate that ignores its input."""

    name = "COUNT(*)"
    invertible = True

    def init(self):
        return 0

    def add(self, state, value):
        return state + 1

    def add_many(self, state, values):
        return state + len(values)

    def merge(self, left, right):
        return left + right

    def unmerge(self, state, part):
        return state - part


class Count(Aggregate):
    """COUNT(expr): counts non-null values."""

    name = "COUNT"
    invertible = True

    def init(self):
        return 0

    def add(self, state, value):
        return state + (0 if value is None else 1)

    def add_many(self, state, values):
        return state + sum(1 for v in values if v is not None)

    def merge(self, left, right):
        return left + right

    def unmerge(self, state, part):
        return state - part


class Sum(Aggregate):
    """SUM(expr): null-preserving sum (SUM over no rows is NULL).

    A ``None`` state means "no non-null input yet"; unmerging an
    all-null pane therefore leaves the state untouched, and a pane with
    real values can only be unmerged from a state that once absorbed it
    (so the state is never ``None`` when ``part`` is not).
    """

    name = "SUM"
    invertible = True

    def init(self):
        return None  # SUM of no rows is NULL, per SQL

    def add(self, state, value):
        if value is None:
            return state
        return value if state is None else state + value

    def add_many(self, state, values):
        for value in values:
            if value is not None:
                state = value if state is None else state + value
        return state

    def merge(self, left, right):
        if left is None:
            return right
        if right is None:
            return left
        return left + right

    def unmerge(self, state, part):
        if part is None:
            return state
        return state - part


class Min(Aggregate):
    """MIN(expr): not invertible -- removing the minimum would need the
    runner-up, which a scalar state cannot carry. The paned window
    re-merges live panes instead."""

    name = "MIN"

    def init(self):
        return None

    def add(self, state, value):
        if value is None:
            return state
        return value if state is None else min(state, value)

    def add_many(self, state, values):
        # min(state, value) is value only when value < state.
        for value in values:
            if value is not None and (state is None or value < state):
                state = value
        return state

    merge = add


class Max(Aggregate):
    """MAX(expr): see :class:`Min` -- merge-only, pane-re-merge fallback."""

    name = "MAX"

    def init(self):
        return None

    def add(self, state, value):
        if value is None:
            return state
        return value if state is None else max(state, value)

    def add_many(self, state, values):
        # max(state, value) is value only when value > state.
        for value in values:
            if value is not None and (state is None or value > state):
                state = value
        return state

    merge = add


class CountDistinct(Aggregate):
    """COUNT(DISTINCT expr): partial state is the value set itself.

    Unlike the other aggregates this one is not constant-size -- the
    tree combiner merges sets, so intermediate messages carry the
    distinct values seen so far. That is exactly how PIER had to do it
    too: distinct-counting is not algebraically compressible without
    sketches, which the original also did not ship. Set union has no
    inverse (an element may be present in several panes), so it is not
    invertible either.
    """

    name = "COUNT_DISTINCT"

    def init(self):
        return frozenset()

    def add(self, state, value):
        if value is None:
            return state
        return state | {value}

    def merge(self, left, right):
        return left | right

    def final(self, state):
        return len(state)


class ApproxCountDistinct(Aggregate):
    """COUNT(DISTINCT expr) via HyperLogLog: constant-size partials.

    The exact :class:`CountDistinct` ships the value set itself, so
    partial states (and every in-network merge) grow with the data.
    This one folds values into a ``2 ** p``-register HLL instead:
    states are a few hundred bytes regardless of cardinality, merge is
    register-wise max (associative, commutative, idempotent), and the
    answer is within ``~1.04 / sqrt(2 ** p)`` relative standard error.
    Registers are maxima, so there is no inverse -- paned windows
    re-merge live pane partials, which stays O(panes) *constant-size*
    merges where the exact fallback re-merges whole value sets.
    """

    name = "APPROX_COUNT_DISTINCT"

    def __init__(self, precision=10):
        self._empty = HyperLogLog(precision)

    def init(self):
        return self._empty

    def add(self, state, value):
        if value is None:
            return state
        return state.add(value)

    def merge(self, left, right):
        return left.merge(right)

    def final(self, state):
        return int(round(state.estimate()))


class ApproxTopK(Aggregate):
    """Heavy hitters via Count-Min: ``k`` most frequent values + counts.

    State is ``(sketch, candidates)``: a Count-Min sketch of every
    value's frequency plus a bounded candidate set (the classic
    sketch-and-heap construction, kept at ``8 * k`` values by estimated
    count so merges stay constant-size). ``final`` returns a tuple of
    ``(value, estimated_count)`` pairs, best first. Estimates never
    under-count and over-count by at most ``epsilon * N``
    (``epsilon = e / width``) with high probability, so any value whose
    true count clears the k-th count by ``2 * epsilon * N`` is
    guaranteed to appear.

    Count-Min is *linear*, so the aggregate is invertible: unmerging a
    retiring pane subtracts its sketch counters exactly
    (``CountMinSketch.unmerge``), and candidates whose estimate drops
    to zero -- values that lived only in the retired pane -- are
    dropped before re-trimming. A stale candidate kept alive by
    hash-collision noise still obeys the one-sided error bound (its
    estimate is at most ``epsilon * N`` over its true count of zero),
    so sliding windows keep the documented APPROX_TOPK guarantees
    while paying O(panes changed) sketch work instead of re-merging
    the whole window.
    """

    name = "APPROX_TOPK"
    invertible = True

    def __init__(self, k=10, depth=4, width=256):
        self.k = k
        self._cap = 8 * k
        self._empty = CountMinSketch(depth=depth, width=width)

    def init(self):
        return (self._empty, frozenset())

    def add(self, state, value):
        if value is None:
            return state
        sketch, candidates = state
        sketch = sketch.add(value)
        return (sketch, self._trim(sketch, candidates | {value}))

    def merge(self, left, right):
        sketch = left[0].merge(right[0])
        return (sketch, self._trim(sketch, left[1] | right[1]))

    def unmerge(self, state, part):
        """Subtract a retiring pane: exact on counters, one-sided on
        candidates (mirrors the SUM/COUNT pane protocol)."""
        sketch = state[0].unmerge(part[0])
        survivors = frozenset(
            v for v in state[1] if sketch.estimate(v) > 0
        )
        return (sketch, self._trim(sketch, survivors))

    def _trim(self, sketch, candidates):
        if len(candidates) <= self._cap:
            return candidates
        ranked = sorted(candidates,
                        key=lambda v: (-sketch.estimate(v), str(v)))
        return frozenset(ranked[: self._cap])

    def final(self, state):
        sketch, candidates = state
        ranked = sorted(candidates,
                        key=lambda v: (-sketch.estimate(v), str(v)))
        return tuple((v, sketch.estimate(v)) for v in ranked[: self.k])


class Avg(Aggregate):
    """AVG via a (sum, count) partial -- merge-safe, unlike a ratio."""

    name = "AVG"
    invertible = True

    def init(self):
        return (0, 0)

    def add(self, state, value):
        if value is None:
            return state
        return (state[0] + value, state[1] + 1)

    def merge(self, left, right):
        return (left[0] + right[0], left[1] + right[1])

    def unmerge(self, state, part):
        return (state[0] - part[0], state[1] - part[1])

    def final(self, state):
        total, count = state
        return total / count if count else None


_REGISTRY = {
    "COUNT(*)": CountStar(),
    "COUNT": Count(),
    "COUNT_DISTINCT": CountDistinct(),
    "SUM": Sum(),
    "MIN": Min(),
    "MAX": Max(),
    "AVG": Avg(),
    "APPROX_COUNT_DISTINCT": ApproxCountDistinct(),
    "APPROX_TOPK": ApproxTopK(),
}


def aggregate_by_name(name):
    """Look up a shared :class:`Aggregate` instance by SQL name."""
    agg = _REGISTRY.get(name.upper())
    if agg is None:
        raise PlanError("unknown aggregate {!r}".format(name))
    return agg


#: Aggregates that accept trailing integer SQL arguments, with their
#: constructor and maximum parameter count. ``APPROX_TOPK(x, k, depth,
#: width)`` and ``APPROX_COUNT_DISTINCT(x, precision)``; omitted
#: parameters keep the constructor defaults.
_PARAMETRIC = {
    "APPROX_COUNT_DISTINCT": (ApproxCountDistinct, 1),
    "APPROX_TOPK": (ApproxTopK, 3),
}


def make_aggregate(name, params=()):
    """Instantiate an aggregate, applying SQL-level parameters.

    Without parameters this returns the shared registry singleton;
    with them it constructs a dedicated instance (parameterized
    aggregates are stateless objects holding only their geometry, so
    per-spec instances are cheap). Raises :class:`PlanError` for
    parameters on a non-parametric aggregate, too many parameters, or
    values that are not positive integers.
    """
    name = name.upper()
    if not params:
        return aggregate_by_name(name)
    entry = _PARAMETRIC.get(name)
    if entry is None:
        aggregate_by_name(name)  # surface unknown-aggregate first
        raise PlanError("{} takes no parameters".format(name))
    cls, max_params = entry
    if len(params) > max_params:
        raise PlanError(
            "{} takes at most {} parameter(s), got {}".format(
                name, max_params, len(params)
            )
        )
    for value in params:
        if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
            raise PlanError(
                "{} parameters must be positive integers, got {!r}".format(
                    name, value
                )
            )
    try:
        return cls(*params)
    except ValueError as exc:
        raise PlanError("{}: {}".format(name, exc))


class AggSpec:
    """One aggregate column in a GROUP BY: function + input + output name.

    ``arg`` is an expression over the input schema, or None for
    COUNT(*). ``params`` are SQL-level integer arguments for sketch
    geometry (see :func:`make_aggregate`). These specs live inside plan
    params and are shared by the partial and final operators of the
    same aggregate.
    """

    def __init__(self, func_name, arg, output_name, params=()):
        self.func_name = func_name.upper()
        self.params = tuple(params)
        self.agg = make_aggregate(
            "COUNT(*)" if self.func_name == "COUNT" and arg is None
            else self.func_name,
            self.params,
        )
        self.arg = arg
        self.output_name = output_name

    def compile_arg_batch(self, schema):
        """Compile ``arg`` against ``schema`` into a RowBatch -> value
        list callable (all ``None`` for COUNT(*))."""
        if self.arg is None:
            return lambda batch: [None] * len(batch)
        return self.arg.compile_batch(schema)

    def __repr__(self):
        arg = "*" if self.arg is None else self.arg.display()
        return "{}({}) AS {}".format(self.func_name, arg, self.output_name)
