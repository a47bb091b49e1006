"""Property tests for the sketch summaries and sketch-backed aggregates.

Three layers:

* algebraic laws: Count-Min and HyperLogLog merges are associative and
  commutative (HLL also idempotent), Count-Min unmerge is an exact
  inverse, and both types are behaviourally immutable (``add`` never
  mutates its receiver -- emitted partials must stay frozen);
* error bounds at the configured geometry: Count-Min never
  under-counts and over-counts by at most ``eps * N`` at the default
  width; HyperLogLog lands within 3 standard errors of the true
  cardinality across a sweep of scales;
* pane-sliding parity: a paned group-by (partial pane increments
  into the final's window assembly) running the sketch aggregates
  answers within the documented bounds of the exact aggregates, epoch
  for epoch, under random window geometries.
"""

import math
import random

import pytest
from stubs import PanedGroupBy

from repro.core.aggregates import AggSpec, aggregate_by_name
from repro.db.expressions import col
from repro.db.schema import Schema
from repro.db.types import INT, STR
from repro.db.window import window_pane_range
from repro.util.sketches import CountMinSketch, HyperLogLog


def cm_of(items, **kwargs):
    sketch = CountMinSketch(**kwargs)
    for item in items:
        sketch = sketch.add(item)
    return sketch


def hll_of(items, p=10):
    sketch = HyperLogLog(p)
    for item in items:
        sketch = sketch.add(item)
    return sketch


class TestCountMin:
    def test_merge_commutative_and_associative(self):
        rng = random.Random(7)
        parts = [
            cm_of(rng.randint(0, 40) for _ in range(200)) for _ in range(3)
        ]
        a, b, c = parts
        assert a.merge(b).rows == b.merge(a).rows
        assert a.merge(b).merge(c).rows == a.merge(b.merge(c)).rows
        assert a.merge(b).total == a.total + b.total

    def test_merge_equals_sketch_of_concatenation(self):
        rng = random.Random(13)
        xs = [rng.randint(0, 30) for _ in range(150)]
        ys = [rng.randint(0, 30) for _ in range(75)]
        merged = cm_of(xs).merge(cm_of(ys))
        assert merged.rows == cm_of(xs + ys).rows

    def test_unmerge_is_exact_inverse(self):
        rng = random.Random(99)
        base = cm_of(rng.randint(0, 50) for _ in range(120))
        pane = cm_of(rng.randint(0, 50) for _ in range(60))
        assert base.merge(pane).unmerge(pane).rows == base.rows

    def test_error_bounds_at_default_geometry(self):
        rng = random.Random(4)
        truth = {}
        sketch = CountMinSketch()
        for _ in range(4000):
            v = rng.randint(0, 300)
            truth[v] = truth.get(v, 0) + 1
            sketch = sketch.add(v)
        for v, n in truth.items():
            estimate = sketch.estimate(v)
            assert estimate >= n, "Count-Min under-counted"
            assert estimate <= n + sketch.epsilon * sketch.total

    def test_add_is_pure(self):
        sketch = CountMinSketch(depth=2, width=16)
        grown = sketch.add("x")
        assert sketch.estimate("x") == 0
        assert grown.estimate("x") == 1

    def test_geometry_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CountMinSketch(depth=2, width=16).merge(
                CountMinSketch(depth=2, width=32))

    def test_for_error_sizes_width(self):
        sketch = CountMinSketch.for_error(0.01, delta=0.01)
        assert sketch.epsilon <= 0.01
        assert math.exp(-sketch.depth) <= 0.01


class TestHyperLogLog:
    def test_merge_commutative_associative_idempotent(self):
        a = hll_of(range(0, 500))
        b = hll_of(range(250, 750))
        c = hll_of(range(600, 900))
        assert a.merge(b).registers == b.merge(a).registers
        assert (a.merge(b).merge(c).registers
                == a.merge(b.merge(c)).registers)
        assert a.merge(a).registers == a.registers

    def test_merge_equals_sketch_of_union(self):
        a = hll_of(range(0, 400))
        b = hll_of(range(200, 600))
        assert a.merge(b).registers == hll_of(range(0, 600)).registers

    def test_error_bound_across_scales(self):
        for n in (50, 500, 5000):
            sketch = hll_of(("item", i) for i in range(n))
            err = abs(sketch.estimate() - n) / n
            assert err <= 3 * sketch.relative_error, (
                "n={}: err {:.4f} beyond 3 std errs".format(n, err)
            )

    def test_add_is_pure_and_idempotent(self):
        empty = HyperLogLog(8)
        one = empty.add("x")
        assert empty.registers == bytes(256)
        assert one.add("x") is one  # no register change: same object

    def test_precision_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HyperLogLog(8).merge(HyperLogLog(10))


class TestSketchAggregates:
    def test_approx_count_distinct_protocol(self):
        agg = aggregate_by_name("APPROX_COUNT_DISTINCT")
        state = agg.init()
        for i in range(1000):
            state = agg.add(state, ("v", i))
        state = agg.add(state, None)  # nulls ignored
        estimate = agg.final(state)
        assert abs(estimate - 1000) <= 3 * 1.04 / math.sqrt(1 << 10) * 1000

    def test_approx_topk_never_undercounts_and_ranks(self):
        agg = aggregate_by_name("APPROX_TOPK")
        truth = {"a": 90, "b": 60, "c": 30, "d": 5}
        state = agg.init()
        for value, n in truth.items():
            for _ in range(n):
                state = agg.add(state, value)
        top = agg.final(state)
        assert [v for v, _e in top[:3]] == ["a", "b", "c"]
        total = sum(truth.values())
        for value, estimate in top:
            assert estimate >= truth.get(value, 0)
            assert estimate <= truth.get(value, 0) + state[0].epsilon * total

    def test_approx_topk_merge_caps_candidates(self):
        agg = aggregate_by_name("APPROX_TOPK")
        left = agg.init()
        right = agg.init()
        for i in range(agg._cap):
            left = agg.add(left, "l{}".format(i))
            right = agg.add(right, "r{}".format(i))
        merged = agg.merge(left, right)
        assert len(merged[1]) <= agg._cap

    def test_states_survive_aggregation_tree_merge_order(self):
        # The combiner merges partials in arrival order; any order must
        # agree (the distributed panes invariant).
        agg = aggregate_by_name("APPROX_COUNT_DISTINCT")
        parts = []
        for base in range(0, 300, 100):
            state = agg.init()
            for i in range(base, base + 150):  # overlapping ranges
                state = agg.add(state, i)
            parts.append(state)
        forward = parts[0]
        for part in parts[1:]:
            forward = agg.merge(forward, part)
        backward = parts[-1]
        for part in reversed(parts[:-1]):
            backward = agg.merge(backward, part)
        assert forward.registers == backward.registers


# ----------------------------------------------------------------------
# Pane-sliding parity: sketch answers track exact answers per epoch
# ----------------------------------------------------------------------
class Sink:
    def __init__(self):
        self.rows = []
        self.consumers = []

    def push_batch(self, batch, port=0):
        self.rows.extend(batch.rows())

    def reset_batch(self):
        pass

    def open_pane(self, pane):
        pass


SCHEMA = Schema.of(("g", STR), ("v", INT))


def _paned_groupby(agg_specs, e, w):
    op = PanedGroupBy(agg_specs, SCHEMA, [col("g")], e, w)
    sink = Sink()
    op.wire(sink, 0)
    return op, sink


class TestPaneSlidingSketchParity:
    @pytest.mark.parametrize("trial", range(6))
    def test_sliding_sketches_track_exact(self, trial):
        rng = random.Random(31000 + trial)
        e = rng.randint(1, 3)
        w = e * rng.randint(2, 4)
        exact_specs = [AggSpec("COUNT_DISTINCT", col("v"), "d")]
        approx_specs = [AggSpec("APPROX_COUNT_DISTINCT", col("v"), "d")]
        exact_op, exact_sink = _paned_groupby(exact_specs, e, w)
        approx_op, approx_sink = _paned_groupby(approx_specs, e, w)

        next_pane = None
        for k in range(1, rng.randint(4, 7) + 1):
            lo, hi = window_pane_range(k, e, w)
            start = lo if next_pane is None else max(lo, next_pane)
            for p in range(start, hi):
                rows = [("g", rng.randint(0, 60))
                        for _ in range(rng.randint(0, 10))]
                if not rows:
                    continue
                for op in (exact_op, approx_op):
                    op.open_pane(p)
                    for row in rows:
                        op.push(row)
            next_pane = hi
            for op, sink in ((exact_op, exact_sink),
                             (approx_op, approx_sink)):
                op.ctx.epoch = op.ctx.active_epoch = k
                sink.rows = []
                op.flush()
            exact = {g: exact_specs[0].agg.final(s[0])
                     for g, s in exact_sink.rows}
            approx = {g: approx_specs[0].agg.final(s[0])
                      for g, s in approx_sink.rows}
            assert set(exact) == set(approx)
            bound = 3 * 1.04 / math.sqrt(1 << 10)
            for g, true_count in exact.items():
                err = abs(approx[g] - true_count) / max(1, true_count)
                assert err <= bound, (
                    "trial {} epoch {}: {} vs exact {}".format(
                        trial, k, approx[g], true_count)
                )


# ----------------------------------------------------------------------
# APPROX_TOPK invertibility: exact pane unmerge (Count-Min linearity)
# ----------------------------------------------------------------------
class TestApproxTopKInvertible:
    def test_unmerge_counters_are_exact(self):
        """Subtracting a retired pane's partial leaves exactly the
        sketch of the surviving rows (Count-Min is linear)."""
        rng = random.Random(91)
        agg = aggregate_by_name("APPROX_TOPK")
        assert agg.invertible
        retiring_rows = [rng.randint(0, 30) for _ in range(120)]
        surviving_rows = [rng.randint(0, 30) for _ in range(150)]
        retiring = agg.init()
        for v in retiring_rows:
            retiring = agg.add(retiring, v)
        surviving = agg.init()
        for v in surviving_rows:
            surviving = agg.add(surviving, v)
        window = agg.merge(surviving, retiring)
        slid = agg.unmerge(window, retiring)
        assert slid[0].rows == surviving[0].rows
        assert slid[0].total == surviving[0].total

    def test_unmerge_drops_retired_only_candidates(self):
        """A value that lived only in the retired pane falls out of the
        candidate set once its estimate hits zero."""
        agg = aggregate_by_name("APPROX_TOPK")
        keeper = agg.init()
        for _ in range(5):
            keeper = agg.add(keeper, "stays")
        retiring = agg.init()
        for _ in range(7):
            retiring = agg.add(retiring, "leaves")
        window = agg.merge(keeper, retiring)
        assert {"stays", "leaves"} <= set(window[1])
        slid = agg.unmerge(window, retiring)
        assert "stays" in slid[1]
        assert "leaves" not in slid[1]
        ranked = dict(agg.final(slid))
        assert ranked.get("stays") == 5

    @pytest.mark.parametrize("trial", range(4))
    def test_paned_topk_slides_without_remerge(self, trial):
        """A paned APPROX_TOPK final (invertible slide path) answers
        each epoch with exactly the sketch a fresh fold of the window's
        rows would build, and its top-k never undercounts."""
        import collections

        rng = random.Random(54000 + trial)
        e = rng.randint(1, 3)
        w = e * rng.randint(2, 4)
        specs = [AggSpec("APPROX_TOPK", col("v"), "t")]
        op, sink = _paned_groupby(specs, e, w)
        by_pane = {}

        next_pane = None
        for k in range(1, rng.randint(4, 7) + 1):
            lo, hi = window_pane_range(k, e, w)
            start = lo if next_pane is None else max(lo, next_pane)
            for p in range(start, hi):
                rows = [("g", rng.randint(0, 25))
                        for _ in range(rng.randint(0, 12))]
                by_pane[p] = [v for _g, v in rows]
                op.open_pane(p)
                for row in rows:
                    op.push(row)
            next_pane = hi
            op.ctx.epoch = op.ctx.active_epoch = k
            sink.rows = []
            op.flush()
            window_values = [
                v for p in range(lo, hi) for v in by_pane.get(p, [])
            ]
            if not window_values:
                assert sink.rows == []
                continue
            assert len(sink.rows) == 1
            sketch, candidates = sink.rows[0][1][0]
            assert sketch.rows == cm_of(window_values).rows
            assert sketch.total == len(window_values)
            true_counts = collections.Counter(window_values)
            for value, estimate in specs[0].agg.final((sketch, candidates)):
                assert estimate >= true_counts.get(value, 0)
