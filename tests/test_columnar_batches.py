"""RowBatch mechanics and the chunking-invariance contract.

Three layers:

* :class:`repro.core.batch.RowBatch` unit tests -- lazy rows<->columns
  duality, truthy ``take``, ``project``, the dict adapter seam, and the
  ``columnar_wire`` encoder's uniform-arity gate;
* column kernels -- comparisons with a constant and the SUM/MIN/MAX
  ``add_many`` loops -- equal to the row closure and the ``add`` loop
  they replace, value for value and bit for bit;
* chunking invariance: ``push_batch`` is every operator's one data
  entry point, and what an operator emits (and the state it leaves
  behind) must not depend on how its input was chunked. Each case
  feeds the same rows twice -- as N one-row batches through the base
  class's ``push`` wrapper (``batch_mode=False``) and as one N-row
  batch (``batch_mode=True``) -- on randomized inputs including empty
  and single-row ones, and under pane/epoch-tagged delivery. The Select
  cases pin SQL three-valued logic: a predicate evaluating to None,
  False or 0 filters the row out under either chunking.
"""

import random

import pytest
from stubs import RecordingDht, StubCtx, make_engine, make_exchange

from repro.core.aggregates import AggSpec
from repro.core.batch import RowBatch, columnar_wire
from repro.core.dataflow import Operator
from repro.core.exchange import payload_rows
from repro.core.opgraph import OpSpec
from repro.core.operators import create_operator
from repro.db.expressions import _BINARY_FNS, BinaryOp, FuncCall, col, lit
from repro.db.schema import Schema
from repro.db.types import ANY, INT, STR
from repro.sim.clock import SimClock
from repro.util.bloom import BloomFilter

SCHEMA = Schema.of(("a", INT), ("b", INT), ("s", STR))


class Sink(Operator):
    """Consumer recording the rows it received, in order."""

    def __init__(self):
        self.rows = []
        self.consumers = []
        self.resets = 0

    def push_batch(self, batch, port=0):
        self.rows.extend(batch.rows())

    def reset_batch(self):
        self.resets += 1


class BatchSink(Operator):
    """Consumer recording delivery granularity."""

    def __init__(self):
        self.rows = []
        self.batches = 0
        self.consumers = []

    def push_batch(self, batch, port=0):
        self.batches += 1
        self.rows.extend(batch.rows())


def make(kind, params, standing=False):
    ctx = StubCtx(standing=standing)
    op = create_operator(ctx, OpSpec("x", kind, params))
    sink = Sink()
    op.wire(sink, 0)
    return op, sink


def random_rows(rng, n):
    return [
        (
            rng.choice([None, 0, 1, 2, 3, rng.randint(-50, 50)]),
            rng.randint(0, 9),
            rng.choice(["x", "y", "z", ""]),
        )
        for _ in range(n)
    ]


# Batch sizes the contract must survive: empty, single-row, small, odd.
SIZES = (0, 1, 2, 5, 17)


# ----------------------------------------------------------------------
# RowBatch mechanics
# ----------------------------------------------------------------------
class TestRowBatch:
    def test_rows_columns_round_trip(self):
        rows = [(1, 2, "x"), (3, 4, "y")]
        by_rows = RowBatch(rows=rows, schema=SCHEMA)
        assert by_rows.columns() == [[1, 3], [2, 4], ["x", "y"]]
        by_cols = RowBatch(columns=[[1, 3], [2, 4], ["x", "y"]])
        assert by_cols.rows() == rows
        assert len(by_rows) == len(by_cols) == 2

    def test_needs_rows_or_columns(self):
        with pytest.raises(ValueError):
            RowBatch()

    def test_empty_batch_transposes_per_schema(self):
        batch = RowBatch(rows=[], schema=SCHEMA)
        assert len(batch) == 0
        assert batch.columns() == [[], [], []]
        assert RowBatch(rows=[]).columns() == []

    def test_take_is_truthy_not_is_true(self):
        batch = RowBatch(rows=[(1, 0, "a"), (2, 0, "b"), (3, 0, "c")])
        kept = batch.take([None, False, 7])
        assert kept.rows() == [(3, 0, "c")]
        assert batch.take([0, "", None]).rows() == []

    def test_take_all_pass_returns_self(self):
        batch = RowBatch(columns=[[1, 2], [3, 4]])
        assert batch.take([1, True]) is batch

    def test_take_on_column_built_batch(self):
        batch = RowBatch(columns=[[1, 2, 3], ["a", "b", "c"]])
        kept = batch.take([True, None, True])
        assert kept.rows() == [(1, "a"), (3, "c")]

    def test_take_keeps_columns_once_they_are_built(self):
        batch = RowBatch(rows=[(1, 0, "a"), (2, 0, "b"), (3, 0, "c")])
        batch.columns()
        kept = batch.take([True, False, True])
        assert kept._rows is None
        assert kept.columns() == [[1, 3], [0, 0], ["a", "c"]]
        assert kept.rows() == [(1, 0, "a"), (3, 0, "c")]
        # The source is left as it was: its rows and columns agree.
        assert batch.rows() == [(1, 0, "a"), (2, 0, "b"), (3, 0, "c")]
        assert batch.columns() == [[1, 2, 3], [0, 0, 0], ["a", "b", "c"]]

    def test_dict_adapters(self):
        # Dict-shaped rows enter through the schema's positional adapter.
        dicts = [{"a": 1, "b": 2, "s": "x"}, {"a": 3, "b": 4, "s": "y"}]
        batch = RowBatch(rows=[SCHEMA.row(d) for d in dicts], schema=SCHEMA)
        assert batch.rows() == [(1, 2, "x"), (3, 4, "y")]

    def test_take_keeps_the_pane(self):
        batch = RowBatch(rows=[(1,), (2,)], pane=4)
        assert batch.take([True, False]).pane == 4
        batch.columns()
        assert batch.take([False, True]).pane == 4
        assert RowBatch(rows=[(1,)]).pane is None

    def test_columnar_wire_uniform_tuples_only(self):
        assert columnar_wire([(1, "a"), (2, "b")]) == [[1, 2], ["a", "b"]]
        assert columnar_wire([(1, 2), (3,)]) is None  # ragged
        assert columnar_wire([(1, 2), [3, 4]]) is None  # not all tuples
        assert columnar_wire([(), ()]) is None  # zero arity
        assert columnar_wire([]) is None


# ----------------------------------------------------------------------
# Select null semantics: None / False / 0 filter under either chunking
# ----------------------------------------------------------------------
class TestSelectNullSemantics:
    def _run(self, predicate, rows, batch_mode):
        op, sink = make("select", {"predicate": predicate, "schema": SCHEMA})
        if batch_mode:
            op.push_batch(RowBatch(rows=rows, schema=SCHEMA))
        else:
            for row in rows:
                op.push(row)
        return sink.rows

    @pytest.mark.parametrize("batch_mode", [False, True])
    def test_null_comparison_filters(self, batch_mode):
        # a > NULL is NULL for every row: nothing may pass.
        predicate = BinaryOp(">", col("a"), lit(None))
        rows = [(5, 0, ""), (None, 0, ""), (-5, 0, "")]
        assert self._run(predicate, rows, batch_mode) == []

    @pytest.mark.parametrize("batch_mode", [False, True])
    def test_none_false_and_zero_all_filter(self, batch_mode):
        # A bare column predicate exposes raw values to the truth test:
        # None (SQL NULL), False and 0 must all drop the row; any other
        # value passes it. ``is True`` filtering would wrongly keep
        # None/0 rows or drop truthy non-bool values.
        rows = [
            (None, 1, "null"),
            (False, 2, "false"),
            (0, 3, "zero"),
            (1, 4, "one"),
            (-7, 5, "neg"),
            (True, 6, "true"),
        ]
        kept = self._run(col("a"), rows, batch_mode)
        assert [r[2] for r in kept] == ["one", "neg", "true"]

    def test_chunkings_agree_on_random_predicates(self):
        rng = random.Random(77)
        predicate = BinaryOp(
            "AND",
            BinaryOp(">", col("a"), lit(0)),
            BinaryOp("<", col("b"), lit(7)),
        )
        for n in SIZES:
            rows = random_rows(rng, n)
            assert (self._run(predicate, rows, False)
                    == self._run(predicate, rows, True))


# ----------------------------------------------------------------------
# Column kernels: value-identical to their operator, value by value
# ----------------------------------------------------------------------
NAN = float("nan")
MIXED = Schema.of(("x", ANY))
NUMBERS = [None, NAN, 0, 1, -3, 7, 2.5, -0.0, 1.0, True, False]
STRINGS = [None, "", "a", "ab", "b", "B"]
COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")


def _hexed(value):
    """``value`` with every float spelled exactly (NaN included)."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, (tuple, list)):
        return tuple(_hexed(v) for v in value)
    return value


def _same_values(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None or isinstance(w, bool):
            assert g is w
        else:
            assert type(g) is type(w) and _hexed(g) == _hexed(w)


class TestComparisonKernels:
    @pytest.mark.parametrize("op", COMPARISONS)
    @pytest.mark.parametrize("literal_left", [False, True])
    def test_equal_to_the_row_closure(self, op, literal_left):
        # The reference is the binary operator itself, applied to one
        # value pair at a time.
        fn = _BINARY_FNS[op]
        cases = [(NUMBERS, c) for c in (0, 1, 2.5, -3.0, NAN, True, False)]
        cases += [(STRINGS, c) for c in ("", "a", "b")]
        if op in ("=", "!="):
            cases += [(NUMBERS + STRINGS, c) for c in (1, "a")]
        for values, constant in cases:
            sides = [col("x"), lit(constant)]
            if literal_left:
                sides.reverse()
            expr = BinaryOp(op, *sides)
            assert expr._constant_kernel(MIXED) is not None
            rows = [(v,) for v in values]
            want = [fn(constant, v) if literal_left else fn(v, constant)
                    for v in values]
            kernel = expr.compile_batch(MIXED)
            _same_values(kernel(RowBatch(rows=rows, schema=MIXED)), want)

    def test_null_literal_keeps_the_generic_path(self):
        expr = BinaryOp("<", col("x"), lit(None))
        assert expr._constant_kernel(MIXED) is None
        batch = RowBatch(rows=[(v,) for v in NUMBERS], schema=MIXED)
        assert expr.compile_batch(MIXED)(batch) == [None] * len(NUMBERS)


class TestAddMany:
    @pytest.mark.parametrize("name", ["SUM", "MIN", "MAX"])
    def test_bit_identical_to_the_add_loop(self, name):
        # One fold over a column equals folding it one value at a time.
        agg = AggSpec(name, col("a"), "out").agg
        rng = random.Random(name)
        # Signed zeros tie and NaN compares false: MIN/MAX must keep
        # exactly the value min()/max() would.
        special = [None, 0.0, -0.0, NAN]
        for _ in range(1000):
            values = [
                rng.choice(special) if rng.random() < 0.3
                else rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-8, 8)
                for _ in range(rng.randint(0, 12))
            ]
            for start in (agg.init(), rng.uniform(-1.0, 1.0)):
                looped = start
                for value in values:
                    looped = agg.add_many(looped, [value])
                _same_values([agg.add_many(start, values)], [looped])


# ----------------------------------------------------------------------
# Chunking invariance: N one-row batches == one N-row batch, every operator
# ----------------------------------------------------------------------
def drive(make_op, rows, batch_mode, flush=True, epochs=None, panes=None):
    """Feed rows through one operator instance and return the sink rows.

    ``batch_mode=False`` feeds N one-row batches, ``batch_mode=True``
    one N-row batch (an empty batch when there are no rows).
    ``epochs`` / ``panes`` optionally tag each batch: the rows are split
    into per-(epoch, pane) chunks fed in order, mimicking
    epoch/pane-tagged deliver_batch.
    """
    op, sink = make_op()
    chunks = [(None, None, rows)]
    if epochs is not None or panes is not None:
        chunks = []
        for i, row in enumerate(rows):
            epoch = epochs[i] if epochs is not None else None
            pane = panes[i] if panes is not None else None
            if chunks and chunks[-1][:2] == (epoch, pane):
                chunks[-1][2].append(row)
            else:
                chunks.append((epoch, pane, [row]))
    for epoch, pane, chunk in chunks:
        if epoch is not None:
            op.ctx.epoch = op.ctx.active_epoch = epoch
        if batch_mode:
            op.push_batch(RowBatch(rows=chunk, schema=SCHEMA, pane=pane))
        else:
            for row in chunk:
                op.push_batch(RowBatch(rows=[row], pane=pane))
    if flush:
        op.flush()
    return sink.rows


class TestChunkingInvariance:
    @pytest.mark.parametrize("n", SIZES)
    def test_select(self, n):
        rows = random_rows(random.Random(100 + n), n)

        def build():
            return make("select", {
                "predicate": BinaryOp(">", col("a"), lit(0)),
                "schema": SCHEMA,
            })

        assert (drive(build, rows, False, flush=False)
                == drive(build, rows, True, flush=False))

    @pytest.mark.parametrize("n", SIZES)
    def test_project(self, n):
        rows = random_rows(random.Random(200 + n), n)

        def build():
            return make("project", {
                "exprs": [BinaryOp("+", col("b"), lit(1)),
                          FuncCall("LENGTH", [col("s")]), col("a")],
                "schema": SCHEMA,
            })

        assert (drive(build, rows, False, flush=False)
                == drive(build, rows, True, flush=False))

    @pytest.mark.parametrize("n", SIZES)
    def test_topk(self, n):
        rows = random_rows(random.Random(300 + n), n)

        def build():
            return make("topk", {
                "sort_keys": [(col("b"), True)], "limit": 3,
                "schema": SCHEMA,
            })

        assert drive(build, rows, False) == drive(build, rows, True)

    @pytest.mark.parametrize("n", SIZES)
    def test_groupby_partial(self, n):
        rows = random_rows(random.Random(400 + n), n)
        specs = [AggSpec("SUM", col("b"), "total"),
                 AggSpec("COUNT", col("a"), "n"),
                 AggSpec("COUNT", None, "rows"),
                 AggSpec("AVG", col("b"), "mean")]

        def build():
            return make("groupby_partial", {
                "group_exprs": [col("s")], "agg_specs": specs,
                "schema": SCHEMA,
            })

        assert (sorted(drive(build, rows, False))
                == sorted(drive(build, rows, True)))

    @pytest.mark.parametrize("n", SIZES)
    def test_groupby_partial_global_aggregate(self, n):
        # Zero group exprs: every row folds into the single () group
        # (the regression the monitoring workload exercises).
        rows = random_rows(random.Random(450 + n), n)
        specs = [AggSpec("SUM", col("b"), "total"),
                 AggSpec("COUNT", None, "n")]

        def build():
            return make("groupby_partial", {
                "group_exprs": [], "agg_specs": specs, "schema": SCHEMA,
            })

        assert drive(build, rows, False) == drive(build, rows, True)

    def test_groupby_partial_global_aggregate_every_chunking(self):
        # The no-GROUP-BY fold takes a batch's columns whole: every way
        # of cutting 7 rows into batches leaves bit-identical states.
        rng = random.Random(460)
        rows = [(rng.choice([None, rng.uniform(-1e3, 1e3)]), i, "")
                for i in range(7)]
        specs = [AggSpec(name, col("a"), name.lower())
                 for name in ("SUM", "MIN", "MAX", "AVG", "COUNT")]
        specs.append(AggSpec("COUNT", None, "n"))
        outcomes = set()
        for cuts in range(2 ** (len(rows) - 1)):
            op, sink = make("groupby_partial", {
                "group_exprs": [], "agg_specs": specs, "schema": SCHEMA,
            })
            chunk = [rows[0]]
            for i, row in enumerate(rows[1:]):
                if cuts >> i & 1:
                    op.push_batch(RowBatch(rows=chunk, schema=SCHEMA))
                    chunk = []
                chunk.append(row)
            op.push_batch(RowBatch(rows=chunk, schema=SCHEMA))
            op.flush()
            ((gvals, states),) = sink.rows
            assert gvals == ()
            outcomes.add(repr(_hexed(states)))
        assert len(outcomes) == 1

    def test_groupby_partial_paned(self):
        rng = random.Random(18)
        rows = random_rows(rng, 14)
        panes = sorted(rng.randint(0, 2) for _ in rows)
        specs = [AggSpec("SUM", col("b"), "total"),
                 AggSpec("COUNT", None, "n")]
        params = {
            "group_exprs": [col("s")], "agg_specs": specs,
            "schema": SCHEMA,
            "paned": {"width": 1.0, "every": 1, "window": 3},
        }

        def build():
            return make("groupby_partial", dict(params), standing=True)

        def run(batch_mode):
            op, sink = build()
            for pane in sorted(set(panes)):
                chunk = [r for r, p in zip(rows, panes) if p == pane]
                if batch_mode:
                    op.push_batch(
                        RowBatch(rows=chunk, schema=SCHEMA, pane=pane))
                else:
                    for row in chunk:
                        op.push_batch(RowBatch(rows=[row], pane=pane))
            op.ctx.epoch = op.ctx.active_epoch = 3
            op.flush()
            return sink.rows

        assert sorted(run(False)) == sorted(run(True))

    @pytest.mark.parametrize("n", SIZES)
    def test_groupby_partial_epoch_tagged_batches(self, n):
        # Standing epoch-ring mode: batches arriving under different
        # active epochs accumulate into their own epoch's states.
        rows = random_rows(random.Random(500 + n), n)
        epochs = [1 + (i % 2) for i in range(n)]
        specs = [AggSpec("SUM", col("b"), "total")]

        def build():
            return make("groupby_partial", {
                "group_exprs": [col("s")], "agg_specs": specs,
                "schema": SCHEMA,
            }, standing=True)

        def run(batch_mode):
            op, sink = build()
            out = []
            # Feed per-epoch chunks, then flush each epoch in order.
            for epoch in (1, 2):
                chunk = [r for r, e in zip(rows, epochs) if e == epoch]
                op.ctx.epoch = op.ctx.active_epoch = epoch
                if batch_mode:
                    op.push_batch(RowBatch(rows=chunk, schema=SCHEMA))
                else:
                    for row in chunk:
                        op.push(row)
            for epoch in (1, 2):
                op.ctx.epoch = op.ctx.active_epoch = epoch
                sink.rows = []
                op.flush()
                out.append(sorted(sink.rows))
            return out

        assert run(False) == run(True)

    @pytest.mark.parametrize("kind,params", [
        ("distinct", {}),
    ])
    @pytest.mark.parametrize("n", SIZES)
    def test_small_operators(self, kind, params, n):
        rows = random_rows(random.Random(600 + n), n)

        def build():
            return make(kind, dict(params))

        assert (drive(build, rows, False, flush=False)
                == drive(build, rows, True, flush=False))

    @pytest.mark.parametrize("n", SIZES)
    def test_distinct_duplicate_heavy(self, n):
        # Chunking must not matter when most of the input is repeats
        # (tiny value pool).
        rng = random.Random(700 + n)
        rows = [(rng.randint(0, 2), rng.randint(0, 1),
                 rng.choice(["x", "y"])) for _ in range(n)]

        def build():
            return make("distinct", {})

        assert (drive(build, rows, False, flush=False)
                == drive(build, rows, True, flush=False))

    def test_distinct_epoch_tagged_batches(self):
        # Standing mode: each epoch's seen-set is its own; a row
        # deduped in epoch 1 is novel again in epoch 2, either way.
        rng = random.Random(701)
        rows = [(rng.randint(0, 2), 0, "x") for _ in range(12)]
        epochs = [1 + (i // 6) for i in range(12)]

        def build():
            return make("distinct", {}, standing=True)

        one_by_one = drive(build, rows, False, flush=False, epochs=epochs)
        batched = drive(build, rows, True, flush=False, epochs=epochs)
        assert one_by_one == batched
        assert len(batched) == (len(set(rows[:6])) + len(set(rows[6:])))

    def test_distinct_seal_epoch_releases_state(self):
        op, sink = make("distinct", {}, standing=True)
        op.ctx.epoch = op.ctx.active_epoch = 1
        op.push_batch(RowBatch(
            rows=[(1, 1, "x"), (1, 1, "x"), (2, 2, "y")], schema=SCHEMA))
        assert len(sink.rows) == 2
        op.seal_epoch(1)
        op.ctx.epoch = op.ctx.active_epoch = 2
        op.push_batch(RowBatch(rows=[(1, 1, "x")], schema=SCHEMA))
        assert len(sink.rows) == 3  # sealed epoch's memory is gone

    def test_distinct_batch_progress_notes_aggregate(self):
        # One progress note per wave, counting every novel row -- the
        # quiescence accounting recursive plans depend on.
        class Eng:
            def __init__(self):
                self.notes = []

            def note_progress(self, qid, epoch, n):
                self.notes.append(n)

        op, sink = make("distinct", {"report_progress": True})
        op.ctx.engine = Eng()
        op.push_batch(RowBatch(
            rows=[(1, 1, "x"), (1, 1, "x"), (2, 2, "y"), (3, 3, "z")], schema=SCHEMA))
        assert sink.rows == [(1, 1, "x"), (2, 2, "y"), (3, 3, "z")]
        assert op.ctx.engine.notes == [3]

    def test_distinct_emission_granularity(self):
        # One call's novel rows leave as ONE batch (nothing leaves when
        # nothing is novel), so downstream operators stay batched.
        op, _sink = make("distinct", {})
        bsink = BatchSink()
        op.consumers = []
        op.wire(bsink, 0)
        op.push_batch(RowBatch(rows=[(1, 1, "x"), (1, 1, "x")], schema=SCHEMA))
        assert bsink.rows == [(1, 1, "x")]
        assert bsink.batches == 1
        op.push_batch(RowBatch(rows=[(2, 1, "x"), (3, 1, "x")], schema=SCHEMA))
        assert bsink.batches == 2
        op.push_batch(RowBatch(rows=[(2, 1, "x")], schema=SCHEMA))
        assert bsink.batches == 2
        assert bsink.rows == [(1, 1, "x"), (2, 1, "x"), (3, 1, "x")]

    def test_base_push_is_a_one_row_batch(self):
        # push exists once, on the base: it wraps its row in a one-row
        # batch, port preserved.
        class TwoPort(Operator):
            def __init__(self):
                self.got = []
                self.consumers = []

            def push_batch(self, batch, port=0):
                self.got.append((port, batch.rows()))

        op = TwoPort()
        op.push((1,), port=1)
        assert op.got == [(1, [(1,)])]

    def test_emit_batch_feeds_batch_consumers_whole(self):
        class Source(Operator):
            def __init__(self):
                self.consumers = []

        source = Source()
        sink = BatchSink()
        source.wire(sink, 0)
        source.emit_batch(RowBatch(rows=[(1,), (2,), (3,)]))
        assert sink.batches == 1
        assert sink.rows == [(1,), (2,), (3,)]


# ----------------------------------------------------------------------
# Symmetric hash join: build+probe is chunking-invariant
# ----------------------------------------------------------------------
class TestSymmetricHashJoinParity:
    RIGHT = Schema.of(("k", INT), ("t", STR))

    def _build(self, residual=None):
        params = {
            "left_schema": SCHEMA, "right_schema": self.RIGHT,
            "left_keys": [col("b")], "right_keys": [col("k")],
        }
        if residual is not None:
            params["residual"] = residual
        return make("shj", params)

    def _random_feeds(self, rng, n):
        """Interleaved per-port chunks totalling ``n`` rows."""
        feeds, remaining = [], n
        while remaining > 0:
            m = min(remaining, rng.randint(1, 5))
            if rng.random() < 0.5:
                feeds.append((0, random_rows(rng, m)))
            else:
                feeds.append((1, [
                    (rng.randint(0, 9), rng.choice(["p", "q"]))
                    for _ in range(m)
                ]))
            remaining -= m
        return feeds

    def _run(self, feeds, batch_mode, residual=None):
        op, sink = self._build(residual)
        for port, chunk in feeds:
            schema = SCHEMA if port == 0 else self.RIGHT
            if batch_mode:
                op.push_batch(RowBatch(rows=chunk, schema=schema), port=port)
            else:
                for row in chunk:
                    op.push(row, port=port)
        return sink.rows

    @pytest.mark.parametrize("with_residual", [False, True])
    @pytest.mark.parametrize("n", SIZES)
    def test_interleaved_port_parity(self, n, with_residual):
        # Keys overlap heavily (b and k both draw from 0..9), so the
        # probe loop fires constantly. Exact equality: emission ORDER
        # is part of the contract, not just the multiset.
        feeds = self._random_feeds(random.Random(800 + n), n)
        residual = (BinaryOp(">", col("a"), lit(0))
                    if with_residual else None)
        assert (self._run(feeds, False, residual)
                == self._run(feeds, True, residual))

    def test_duplicate_key_probe_order(self):
        # Two matches already built under key 3, then a left batch with
        # two rows of the same key: joins come out row-major (each left
        # row against the matches in table insertion order).
        feeds = [
            (1, [(3, "p"), (3, "q")]),
            (0, [(10, 3, "x"), (20, 3, "y")]),
        ]
        expected = [
            (10, 3, "x", 3, "p"), (10, 3, "x", 3, "q"),
            (20, 3, "y", 3, "p"), (20, 3, "y", 3, "q"),
        ]
        assert self._run(feeds, False) == expected
        assert self._run(feeds, True) == expected

    def test_build_side_batch_probes_later(self):
        # A batch on the right port both builds its table and probes
        # the left side built earlier -- column order stays
        # left-then-right even when the right row arrives second.
        feeds = [(0, [(1, 7, "x")]), (1, [(7, "p"), (7, "q")])]
        expected = [(1, 7, "x", 7, "p"), (1, 7, "x", 7, "q")]
        assert self._run(feeds, False) == expected
        assert self._run(feeds, True) == expected

    def test_emission_granularity(self):
        # Everything one call joins leaves as ONE batch downstream; a
        # call that joins nothing emits nothing.
        op, _sink = self._build()
        bsink = BatchSink()
        op.consumers = []
        op.wire(bsink, 0)
        op.push_batch(RowBatch(rows=[(7, "p"), (7, "q")], schema=self.RIGHT),
                      port=1)
        assert bsink.batches == 0
        op.push_batch(RowBatch(rows=[(1, 7, "x")], schema=SCHEMA), port=0)
        assert bsink.batches == 1
        assert bsink.rows == [(1, 7, "x", 7, "p"), (1, 7, "x", 7, "q")]
        op.push_batch(RowBatch(rows=[(8, "p")], schema=self.RIGHT), port=1)
        op.push_batch(RowBatch(rows=[(2, 8, "y")], schema=SCHEMA), port=0)
        assert bsink.batches == 2
        assert bsink.rows[-1] == (2, 8, "y", 8, "p")

    def test_one_row_arrival_fans_out_as_one_batch(self):
        # A single row landing on the build side with k matches already
        # on the other side reaches the consumer as one k-row batch.
        op, _sink = self._build()
        bsink = BatchSink()
        op.consumers = []
        op.wire(bsink, 0)
        op.push_batch(RowBatch(
            rows=[(1, 7, "x"), (2, 7, "y"), (3, 7, "z")], schema=SCHEMA), port=0)
        assert bsink.batches == 0
        op.push((7, "p"), port=1)
        assert bsink.batches == 1
        assert bsink.rows == [(1, 7, "x", 7, "p"), (2, 7, "y", 7, "p"),
                              (3, 7, "z", 7, "p")]


# ----------------------------------------------------------------------
# Fetch-matches: the probe is chunking-invariant, async replies included
# ----------------------------------------------------------------------
class FetchDht(RecordingDht):
    """DHT stub capturing ``get`` calls for deterministic release."""

    def __init__(self, table_rows):
        super().__init__(SimClock())
        self.table_rows = table_rows  # key -> [row tuples]
        self.pending = []  # (key, callback) in dispatch order
        self.gets = 0

    def get(self, table, key, callback):
        self.gets += 1
        self.pending.append((key, callback))

    def release_all(self):
        """Answer every outstanding fetch in dispatch order."""
        pending, self.pending = self.pending, []
        for key, callback in pending:
            rows = self.table_rows.get(key, [])
            callback([(i, row) for i, row in enumerate(rows)])


class PaneSink(Sink):
    """Sink recording each batch's pane ahead of its rows."""

    def __init__(self):
        super().__init__()
        self.events = []

    def push_batch(self, batch, port=0):
        super().push_batch(batch)
        self.events.append(("pane", batch.pane))
        self.events.extend(("row", row) for row in batch.rows())


class TestFetchMatchesParity:
    TABLE = Schema.of(("k", INT), ("t", STR))

    def _build(self, table_rows, residual=None, dedup=False, paned=False):
        params = {
            "probe_schema": SCHEMA, "table": "inner",
            "table_schema": self.TABLE,
            "probe_key": col("b"),
        }
        if residual is not None:
            params["residual"] = residual
        if dedup:
            params["dedup_keys"] = True
        if paned:
            params["paned"] = {"width": 1.0, "every": 1, "window": 3}
        ctx = StubCtx(standing=paned)
        ctx.dht = FetchDht(table_rows)
        op = create_operator(ctx, OpSpec("x", "fetch_matches", params))
        sink = PaneSink()
        op.wire(sink, 0)
        return op, sink, ctx.dht

    @staticmethod
    def _table_for(rng):
        # Keys 0..9 (matching column b's range); some keys have several
        # matches, some none at all.
        return {
            k: [(k, "t{}".format(j)) for j in range(rng.randint(0, 2))]
            for k in range(10)
        }

    def _run(self, rows, batch_mode, table_rows, release="end", **kwargs):
        op, sink, dht = self._build(table_rows, **kwargs)
        chunks = ([rows[i:i + 4] for i in range(0, len(rows), 4)]
                  if rows else [[]])
        for chunk in chunks:
            if batch_mode:
                op.push_batch(RowBatch(rows=chunk, schema=SCHEMA))
            else:
                for row in chunk:
                    op.push(row)
            if release == "eager":
                dht.release_all()
        dht.release_all()
        return op, sink, dht

    @pytest.mark.parametrize("release", ["end", "eager"])
    @pytest.mark.parametrize("n", SIZES)
    def test_parity_random(self, n, release):
        # Exact equality: join release order (waiting lists drained in
        # batch-row order per fetched key) is part of the contract.
        rng = random.Random(980 + n)
        table_rows = self._table_for(rng)
        rows = random_rows(rng, n)
        _op, by_row, dht_row = self._run(rows, False, table_rows,
                                         release=release)
        _op, by_batch, dht_batch = self._run(rows, True, table_rows,
                                             release=release)
        assert by_row.rows == by_batch.rows
        # One get per distinct in-flight key either way: repeats
        # piggyback on the waiting list, never re-dispatch.
        assert dht_row.gets == dht_batch.gets

    @pytest.mark.parametrize("n", SIZES)
    def test_parity_with_residual(self, n):
        rng = random.Random(990 + n)
        table_rows = self._table_for(rng)
        rows = random_rows(rng, n)
        residual = BinaryOp(">", col("a"), lit(0))
        _op, by_row, _ = self._run(rows, False, table_rows,
                                   residual=residual)
        _op, by_batch, _ = self._run(rows, True, table_rows,
                                     residual=residual)
        assert by_row.rows == by_batch.rows

    def test_waiting_lists_identical_before_release(self):
        # The state left behind mid-flight must match too: repeats of a
        # key queue behind the first probe in batch-row order.
        rows = [(1, 3, "x"), (2, 3, "y"), (3, 5, "z"), (4, 3, "w")]
        table_rows = {3: [(3, "p")], 5: []}

        def waiting(batch_mode):
            op, _sink, dht = self._build(table_rows)
            if batch_mode:
                op.push_batch(RowBatch(rows=rows, schema=SCHEMA))
            else:
                for row in rows:
                    op.push(row)
            entry = op._epochs.peek(0)
            return entry["waiting"], dht.gets

        row_waiting, row_gets = waiting(False)
        batch_waiting, batch_gets = waiting(True)
        assert row_waiting == batch_waiting
        assert row_gets == batch_gets == 2  # keys 3 and 5, once each
        assert [p for p, _pane in batch_waiting[3]] == [
            (1, 3, "x"), (2, 3, "y"), (4, 3, "w")]

    def test_dedup_cache_hits_skip_refetch(self):
        table_rows = {7: [(7, "p")]}
        op, sink, dht = self._build(table_rows, dedup=True)
        op.push_batch(RowBatch(rows=[(1, 7, "x")], schema=SCHEMA))
        dht.release_all()
        assert sink.rows == [(1, 7, "x", 7, "p")]
        # Second batch on the same key: joined straight from the cache,
        # no new get dispatched.
        op.push_batch(RowBatch(
            rows=[(2, 7, "y"), (3, 7, "z")], schema=SCHEMA))
        assert dht.gets == 1
        assert sink.rows == [(1, 7, "x", 7, "p"), (2, 7, "y", 7, "p"),
                             (3, 7, "z", 7, "p")]

    def test_pane_announcements_replay_parity(self):
        # Paned standing plan: joins released by an async reply must
        # leave in batches of their probe row's pane, identically
        # under either chunking.
        rng = random.Random(995)
        table_rows = self._table_for(rng)
        rows = random_rows(rng, 10)
        panes = sorted(rng.randint(0, 2) for _ in rows)

        def run(batch_mode):
            op, sink, dht = self._build(table_rows, paned=True)
            for pane in sorted(set(panes)):
                chunk = [r for r, p in zip(rows, panes) if p == pane]
                if batch_mode:
                    op.push_batch(
                        RowBatch(rows=chunk, schema=SCHEMA, pane=pane))
                else:
                    for row in chunk:
                        op.push_batch(RowBatch(rows=[row], pane=pane))
            dht.release_all()
            return sink.events

        events = run(True)
        assert run(False) == events
        pane_of = dict(zip(rows, panes))
        current = None
        for kind, value in events:
            if kind == "pane":
                current = value
            else:
                assert pane_of[value[:3]] == current

    def test_one_reply_releases_one_batch(self):
        # Every probe waiting on a key joins into one batch when the
        # key's reply lands, and one push's cache hits leave as one.
        op, sink, dht = self._build({3: [(3, "p"), (3, "q")]}, dedup=True)
        sizes = []
        sink.push_batch = lambda batch, port=0: sizes.append(len(batch))
        op.push_batch(RowBatch(rows=[(1, 3, "x"), (2, 3, "y")], schema=SCHEMA))
        dht.release_all()
        op.push_batch(RowBatch(rows=[(4, 3, "z"), (5, 3, "w")], schema=SCHEMA))
        assert sizes == [4, 4]

    def test_empty_batch_is_inert(self):
        op, sink, dht = self._build({})
        op.push_batch(RowBatch(rows=[], schema=SCHEMA))
        assert dht.gets == 0 and sink.rows == []

    def test_sealed_epoch_drops_late_reply(self):
        op, sink, dht = self._build({3: [(3, "p")]})
        op.ctx.epoch = op.ctx.active_epoch = 1
        op.push_batch(RowBatch(rows=[(1, 3, "x")], schema=SCHEMA))
        op.seal_epoch(1)
        dht.release_all()  # reply lands after the epoch closed
        assert sink.rows == []


# ----------------------------------------------------------------------
# Bloom stage: chunking-invariant buffer/fold, batch-granularity release
# ----------------------------------------------------------------------
class TestBloomStageParity:
    def _build(self):
        return make("bloom_stage", {
            "side": "left", "key_exprs": [col("s")], "schema": SCHEMA,
            "capacity": 64, "fp_rate": 0.01, "group": "g",
        })

    @staticmethod
    def _filter_of(values):
        other = BloomFilter.for_capacity(64, 0.01)
        for v in values:
            other.add((v,))  # key tuples, matching the stage's key_fn
        return other

    @pytest.mark.parametrize("n", SIZES)
    def test_release_parity(self, n):
        rows = random_rows(random.Random(900 + n), n)
        other = self._filter_of(["x", "z"])

        def run(batch_mode):
            op, sink = self._build()
            if batch_mode:
                op.push_batch(RowBatch(rows=rows, schema=SCHEMA))
            else:
                for row in rows:
                    op.push(row)
            op.control({"filters": {"right": other}})
            return sink.rows

        assert run(False) == run(True)

    @pytest.mark.parametrize("n", SIZES)
    def test_filter_bits_identical(self, n):
        # Either chunking must set exactly the same bits -- the filter
        # goes on the wire, so bit identity matters.
        rows = random_rows(random.Random(950 + n), n)

        def bits(batch_mode):
            op, _sink = self._build()
            if batch_mode:
                op.push_batch(RowBatch(rows=rows, schema=SCHEMA))
            else:
                for row in rows:
                    op.push(row)
            state = op._epochs.peek(0)
            return None if state is None else state["filter"]._bits

        assert bits(False) == bits(True)

    def test_missing_opposite_filter_releases_all(self):
        rows = random_rows(random.Random(970), 6)
        op, sink = self._build()
        op.push_batch(RowBatch(rows=rows, schema=SCHEMA))
        op.control({"filters": {}})
        assert sink.rows == rows

    def test_release_granularity(self):
        # One release's passing rows leave as ONE batch.
        other = self._filter_of(["x"])
        op, _sink = self._build()
        bsink = BatchSink()
        op.consumers = []
        op.wire(bsink, 0)
        op.push_batch(RowBatch(
            rows=[(1, 1, "x"), (2, 2, "q"), (3, 3, "x")], schema=SCHEMA))
        op.control({"filters": {"right": other}})
        assert bsink.batches == 1
        assert bsink.rows == [(1, 1, "x"), (3, 3, "x")]


# ----------------------------------------------------------------------
# Exchange: chunking never changes the shipped messages
# ----------------------------------------------------------------------
class TestExchangeChunkingInvariance:
    def _exchange(self, sent, max_batch_rows=4, key=None):
        from repro.core.engine import EngineConfig

        engine = make_engine(EngineConfig(max_batch_rows=max_batch_rows),
                             routed=sent)
        return make_exchange(
            engine, standing=False,
            key=key or {"kind": "exprs", "exprs": [col("s")],
                        "schema": SCHEMA})

    @staticmethod
    def _normalize(sent):
        return [
            (key, payload["op"], payload.get("rid"),
             list(payload_rows(payload)))
            for key, payload in sent
        ]

    @pytest.mark.parametrize("n", SIZES)
    def test_chunking_ships_identical_messages(self, n):
        rows = random_rows(random.Random(700 + n), n)
        sent_one_by_one, sent_batched = [], []
        one_by_one = self._exchange(sent_one_by_one)
        for row in rows:
            one_by_one.push(row)
        one_by_one.flush()
        batched = self._exchange(sent_batched)
        batched.push_batch(RowBatch(rows=rows, schema=SCHEMA))
        batched.flush()
        assert (self._normalize(sent_one_by_one)
                == self._normalize(sent_batched))

    @pytest.mark.parametrize("tail", [(), ("why",)])
    def test_byte_cap_crossings_do_not_depend_on_how_rows_are_sized(
            self, tail, monkeypatch):
        """Fixed-width batches are sized once, string batches row by
        row: the byte cap cuts the same messages as sizing every row."""
        from repro.core import exchange as exchange_module

        monkeypatch.setattr(exchange_module, "MAX_BATCH_BYTES", 100)
        rng = random.Random(31)
        rows = [(rng.randint(0, 2), rng.random(), rng.random() < 0.5) + tail
                for _ in range(90)]
        key = {"kind": "exprs", "exprs": [col("a")], "schema": SCHEMA}
        shipped = {}
        for sized_once in (True, False):
            if not sized_once:
                monkeypatch.setattr(exchange_module, "uniform_row_size",
                                    lambda rows: None)
            sent = shipped[sized_once] = []
            exchange = self._exchange(sent, key=key)
            exchange._max_batch_rows = 10 ** 6  # only the byte cap cuts
            for start in range(0, len(rows), 30):
                exchange.push_batch(RowBatch(rows=rows[start:start + 30]))
            exchange.flush()
        assert self._normalize(shipped[True]) == self._normalize(shipped[False])
        assert len(shipped[True]) > 6

    def test_columnar_wire_shape_decodes(self):
        rows = [(1, 2, "x"), (3, 4, "y"), (5, 6, "x")]
        sent = []
        exchange = self._exchange(sent)
        exchange.push_batch(RowBatch(rows=rows, schema=SCHEMA))
        exchange.flush()
        shapes = {p["op"] for _k, p in sent}
        assert "deliver_batch" in shapes
        for _key, payload in sent:
            if payload["op"] == "deliver_batch":
                assert "cols" in payload and "rows" not in payload
        decoded = [r for _k, p in sent for r in payload_rows(p)]
        assert sorted(decoded) == sorted(rows)

    def test_ragged_rows_fall_back_to_the_rows_wire_shape(self):
        # Rows of unequal arity cannot transpose into columns: the
        # message keeps the row shape and still decodes to the rows.
        # A literal key gives all three one routing id, so one message.
        rows = [(1, 2, "x"), (3, 4), (5,)]
        sent = []
        exchange = self._exchange(
            sent, key={"kind": "exprs", "exprs": [lit(0)], "schema": SCHEMA})
        exchange.push_batch(RowBatch(rows=rows))
        exchange.flush()
        [(_key, payload)] = sent
        assert payload["op"] == "deliver_batch"
        assert payload["rows"] == rows and "cols" not in payload
        assert list(payload_rows(payload)) == rows

    def test_unbatched_exchange_routes_batch_rows_singly(self):
        rows = [(1, 2, "x"), (3, 4, "y")]
        sent = []
        exchange = self._exchange(sent, max_batch_rows=1)
        exchange.push_batch(RowBatch(rows=rows, schema=SCHEMA))
        assert [p["op"] for _k, p in sent] == ["deliver", "deliver"]
        assert [p["data"] for _k, p in sent] == rows
