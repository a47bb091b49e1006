"""Aggregate functions with decomposable partial states.

In-network aggregation needs every aggregate in the classic
init/fold/merge/final form (Gray et al.'s algebraic aggregates): nodes
accumulate local partials, the aggregation tree *merges* partials at
every hop, and only the root runs *final*. AVG therefore carries
(sum, count), never a ratio. Folding is by column only: ``add_many``
folds one column of input values into a state, and a caller with a
single value folds a one-value column.

Paned sliding-window aggregation needs nothing more: when a continuous
query's window overlaps its epoch period (``WINDOW > EVERY``),
per-epoch deltas are folded into *panes* of width ``gcd(WINDOW,
EVERY)`` and each epoch's answer merges the window's live pane
partials -- O(panes) per epoch rather than O(rows). No aggregate ever
subtracts a partial back out, which float rounding and NULLs would
make inexact.
"""

from bisect import bisect_left, bisect_right

from repro.util.errors import PlanError
from repro.util.sketches import CountMinSketch, HyperLogLog


class Aggregate:
    """One aggregate function in decomposable form.

    Subclasses implement the algebraic protocol: ``init`` produces an
    empty partial state, ``add_many`` folds a column of input values
    into a state, ``merge`` combines two states, and ``final`` turns a
    state into the answer. States must be immutable values (numbers,
    tuples, frozensets) so partials can be shipped, held, and
    snapshotted without defensive copying.
    """

    name = "abstract"

    def init(self):
        """Return the empty partial state (the fold's identity)."""
        raise NotImplementedError

    def add_many(self, state, values):
        """Fold a column of values into ``state``, in order; returns
        the new state.

        One call over a column must equal folding its values one at a
        time (one-value columns), float accumulation order included,
        so a state never depends on how the input was chunked.
        """
        raise NotImplementedError

    def merge(self, left, right):
        """Combine two partial states into one."""
        raise NotImplementedError

    def final(self, state):
        """Finish a state into the user-visible value (identity here)."""
        return state


class CountStar(Aggregate):
    """COUNT(*): counts rows; the only aggregate that ignores its input."""

    name = "COUNT(*)"

    def init(self):
        return 0

    def add_many(self, state, values):
        return state + len(values)

    def merge(self, left, right):
        return left + right


class Count(Aggregate):
    """COUNT(expr): counts non-null values."""

    name = "COUNT"

    def init(self):
        return 0

    def add_many(self, state, values):
        return state + sum(1 for v in values if v is not None)

    def merge(self, left, right):
        return left + right


class Sum(Aggregate):
    """SUM(expr): null-preserving sum (SUM over no rows is NULL).

    A ``None`` state means "no non-null input yet", so a window whose
    panes hold only NULLs answers NULL.
    """

    name = "SUM"

    def init(self):
        return None  # SUM of no rows is NULL, per SQL

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


class Min(Aggregate):
    """MIN(expr): the smaller non-null value; NULL over no values."""

    name = "MIN"

    def init(self):
        return None

    def add_many(self, state, values):
        for value in values:
            if value is not None and (state is None or value < state):
                state = value
        return state

    def merge(self, left, right):
        if right is None:
            return left
        return right if left is None else min(left, right)


class Max(Aggregate):
    """MAX(expr): the larger non-null value; NULL over no values."""

    name = "MAX"

    def init(self):
        return None

    def add_many(self, state, values):
        for value in values:
            if value is not None and (state is None or value > state):
                state = value
        return state

    def merge(self, left, right):
        if right is None:
            return left
        return right if left is None else max(left, right)


class CountDistinct(Aggregate):
    """COUNT(DISTINCT expr): partial state is the value set itself.

    Unlike the other aggregates this one is not constant-size -- the
    tree combiner merges sets, so intermediate messages carry the
    distinct values seen so far. That is exactly how PIER had to do it
    too: distinct-counting is not algebraically compressible without
    sketches, which the original also did not ship. A paned window
    re-merges its panes' sets, so a value present in several panes
    counts once.
    """

    name = "COUNT_DISTINCT"

    def init(self):
        return frozenset()

    def add_many(self, state, values):
        return state.union(v for v in values if v is not None)

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
    A paned window re-merges O(panes) *constant-size* registers where
    the exact aggregate re-merges whole value sets.
    """

    name = "APPROX_COUNT_DISTINCT"

    def __init__(self, *precision):
        # ``precision`` is the SQL parameter, or empty for the sketch's
        # own default.
        self._empty = HyperLogLog(*precision)

    def init(self):
        return self._empty

    def add_many(self, state, values):
        for value in values:
            if value is not None:
                state = state.add(value)
        return state

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
    guaranteed to appear. A paned window re-merges its panes'
    sketches and candidate sets, so these guarantees hold over exactly
    the window's rows.
    """

    name = "APPROX_TOPK"

    def __init__(self, k=10, depth=4, width=256):
        self.k = k
        self._cap = 8 * k
        self._empty = CountMinSketch(depth=depth, width=width)

    def init(self):
        return (self._empty, frozenset())

    def add_many(self, state, values):
        sketch, candidates = state
        for value in values:
            if value is not None:
                sketch = sketch.add(value)
                candidates = self._trim(sketch, candidates | {value})
        return (sketch, candidates)

    def merge(self, left, right):
        sketch = left[0].merge(right[0])
        return (sketch, self._trim(sketch, left[1] | right[1]))

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

    def init(self):
        return (0, 0)

    def add_many(self, state, values):
        total, count = state
        for value in values:
            if value is not None:
                total += value
                count += 1
        return (total, count)

    def merge(self, left, right):
        return (left[0] + right[0], left[1] + right[1])

    def final(self, state):
        total, count = state
        return total / count if count else None


def merge_into(held, agg_specs, states):
    """Merge ``states`` into the list ``held`` in place, ``held`` on the
    left: one merge order everywhere, so float sums stay bit-identical."""
    for i, spec in enumerate(agg_specs):
        held[i] = spec.agg.merge(held[i], states[i])


class FamilyAggregate(Aggregate):
    """A predicate family's state (:mod:`repro.core.sharing`): a dict
    ``member key -> states``, each what that member's own partial would
    hold (no key: no row). It merges key by key, never in place, and
    stands in an ``agg_specs`` list where an :class:`AggSpec` would
    (``agg`` is itself); :class:`FamilyLayout` builds it."""

    def __init__(self, specs):
        self.specs = list(specs)  # the members' aggregates, in order
        self.agg = self

    def init(self):
        return {}

    def merge(self, left, right):
        if not left or not right:
            return left or right
        merged = dict(left)
        for key, states in right.items():
            held = merged.get(key)
            merged[key] = states if held is None else self.merge_states(
                held, states)
        return merged

    def merge_states(self, left, right):
        """One member's state tuples, merged aggregate by aggregate."""
        return tuple(spec.agg.merge(a, b)
                     for spec, a, b in zip(self.specs, left, right))


class FamilyLayout:
    """``members`` (key -> constant) cut the value line at their ``m``
    sorted distinct constants into ``m + 1`` intervals; ``bisect(cuts,
    v)`` is ``v``'s, a value equal to a constant landing on the side
    ``op`` wants. Under ``>`` / ``>=`` the member at constant ``j``
    reads the intervals above ``j``, under ``<`` / ``<=`` those up to
    ``j``; ``span`` is the range some member reads."""

    __slots__ = ("members", "cuts", "bisect", "span", "_order", "_keys")

    def __init__(self, op, members):
        self.members = dict(members)
        self.cuts = sorted(set(self.members.values()))
        m = len(self.cuts)
        upper = op in (">", ">=")
        self.bisect = bisect_left if op in (">", "<=") else bisect_right
        self.span = (1, m) if upper else (0, m - 1)
        # Suffixes top down or prefixes bottom up; interval i completes
        # the members listed under it.
        self._order = range(m, 0, -1) if upper else range(m)
        index = {c: j + upper for j, c in enumerate(self.cuts)}
        self._keys = [[] for _ in range(m + 1)]
        for key, constant in self.members.items():
            self._keys[index[constant]].append(key)

    def spread(self, intervals, family):
        """``(key, states)`` per member some of ``intervals`` (interval
        -> states) reaches: each suffix or prefix, merged once."""
        acc = None
        for i in self._order:
            part = intervals.get(i)
            if part is not None:
                acc = tuple(part) if acc is None else family.merge_states(
                    acc, part)
            if acc is not None:
                for key in self._keys[i]:
                    yield key, acc


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
