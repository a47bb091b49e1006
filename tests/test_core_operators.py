"""Operator unit tests with a stub context (no network)."""

import pytest
from stubs import StubCtx

from repro.core.aggregates import AggSpec
from repro.core.batch import RowBatch
from repro.core.dataflow import Operator
from repro.core.opgraph import OpSpec
from repro.core.operators import create_operator, registered_kinds
from repro.core.operators.topk import sort_rows
from repro.db.expressions import BinaryOp, col, lit
from repro.db.schema import Schema
from repro.db.types import INT, STR
from repro.util.errors import PlanError


class Sink(Operator):
    def __init__(self):
        self.rows = []
        self.consumers = []
        self.resets = 0

    def push_batch(self, batch, port=0):
        self.rows.extend(batch.rows())

    def reset_batch(self):
        self.resets += 1


def make(kind, params, ports=1):
    op = create_operator(StubCtx(), OpSpec("x", kind, params))
    sink = Sink()
    op.wire(sink, 0)
    return op, sink


SCHEMA = Schema.of(("a", INT), ("b", INT), ("s", STR))


class TestRegistry:
    def test_known_kinds_present(self):
        have = registered_kinds()
        for kind in ("scan", "select", "project", "shj", "fetch_matches",
                     "groupby_partial", "groupby_final", "topk", "distinct",
                     "result", "exchange", "bloom_stage"):
            assert kind in have

    def test_unknown_kind_rejected(self):
        with pytest.raises(PlanError):
            create_operator(StubCtx(), OpSpec("x", "teleport", {}))

    def test_base_push_batch_not_implemented(self):
        base = Operator(StubCtx(), OpSpec("x", "abstract", {}))
        with pytest.raises(NotImplementedError):
            base.push_batch(RowBatch.from_rows([(1,)]))
        with pytest.raises(NotImplementedError):
            base.push((1,))  # the one-row wrapper lands in push_batch

    def test_push_and_emit_live_only_on_the_base(self):
        # One entry point: every registered operator implements
        # push_batch and none re-implements the one-row conveniences.
        from repro.core.operators import _REGISTRY

        for kind, cls in _REGISTRY.items():
            assert "push" not in vars(cls), kind
            assert "emit" not in vars(cls), kind
            # Sources take no input; neither do the probe operators
            # other test modules register.
            if kind != "scan" and cls.__module__.startswith("repro."):
                assert cls.push_batch is not Operator.push_batch, kind


class TestSelect:
    def test_filters(self):
        op, sink = make("select", {
            "predicate": BinaryOp(">", col("a"), lit(2)), "schema": SCHEMA,
        })
        for a in (1, 2, 3, 4):
            op.push((a, 0, ""))
        assert [r[0] for r in sink.rows] == [3, 4]

    def test_null_predicate_drops(self):
        op, sink = make("select", {
            "predicate": BinaryOp(">", col("a"), lit(None)), "schema": SCHEMA,
        })
        op.push((5, 0, ""))
        assert sink.rows == []


class TestProject:
    def test_reshapes(self):
        op, sink = make("project", {
            "exprs": [BinaryOp("+", col("a"), col("b")), col("s")],
            "schema": SCHEMA,
        })
        op.push((1, 2, "x"))
        assert sink.rows == [(3, "x")]


class TestGroupBy:
    def specs(self):
        return [AggSpec("SUM", col("b"), "total"), AggSpec("COUNT", None, "n")]

    def test_partial_emits_states_on_flush(self):
        op, sink = make("groupby_partial", {
            "group_exprs": [col("a")], "agg_specs": self.specs(), "schema": SCHEMA,
        })
        op.push((1, 10, ""))
        op.push((1, 5, ""))
        op.push((2, 7, ""))
        assert sink.rows == []  # holds until flush
        op.flush()
        assert sorted(sink.rows) == [((1,), (15, 2)), ((2,), (7, 1))]

    def test_partial_flush_clears_state(self):
        op, sink = make("groupby_partial", {
            "group_exprs": [], "agg_specs": self.specs(), "schema": SCHEMA,
        })
        op.push((1, 1, ""))
        op.flush()
        op.flush()
        assert len(sink.rows) == 1

    def test_final_merges_states(self):
        # The final emits mergeable (group, states) rows -- finalization
        # happens at the query site so duplicate owners can reconcile.
        op, sink = make("groupby_final", {"agg_specs": self.specs()})
        op.push(((1,), (10, 2)))
        op.push(((1,), (5, 1)))
        op.push(((2,), (7, 1)))
        op.flush()
        assert sorted(sink.rows) == [((1,), (15, 3)), ((2,), (7, 1))]

    def test_final_avg_keeps_sum_count_state(self):
        op, sink = make("groupby_final", {
            "agg_specs": [AggSpec("AVG", col("b"), "avg")],
        })
        op.push(((), ((10, 2),)))
        op.push(((), ((20, 3),)))
        op.flush()
        assert sink.rows == [((), ((30, 5),))]

    def test_final_streaming_refinement(self):
        # A straggler arriving after the flush triggers a re-emission of
        # the full state, preceded by a downstream batch reset.
        op, sink = make("groupby_final", {"agg_specs": self.specs()})
        op.push(((1,), (10, 1)))
        op.flush()
        assert sink.rows == [((1,), (10, 1))]
        assert sink.resets == 1
        op.push(((1,), (5, 1)))  # straggler: schedules a re-flush
        op.flush()  # (the timer would do this; call directly in the unit test)
        assert sink.rows[-1] == ((1,), (15, 2))
        assert sink.resets == 2

    def test_empty_partial_emits_nothing(self):
        op, sink = make("groupby_partial", {
            "group_exprs": [], "agg_specs": self.specs(), "schema": SCHEMA,
        })
        op.flush()
        assert sink.rows == []


class TestTopK:
    def test_sorts_and_cuts(self):
        op, sink = make("topk", {
            "sort_keys": [(col("a"), True)], "limit": 2, "schema": SCHEMA,
        })
        for a in (3, 1, 4, 1, 5):
            op.push((a, 0, ""))
        op.flush()
        assert [r[0] for r in sink.rows] == [5, 4]

    def test_ties_broken_by_secondary_key(self):
        op, sink = make("topk", {
            "sort_keys": [(col("a"), True), (col("b"), False)],
            "limit": 3, "schema": SCHEMA,
        })
        op.push((1, 9, ""))
        op.push((1, 2, ""))
        op.push((2, 5, ""))
        op.flush()
        assert [(r[0], r[1]) for r in sink.rows] == [(2, 5), (1, 2), (1, 9)]

    def test_nulls_sort_last(self):
        rows = [(None, 0, ""), (3, 0, ""), (1, 0, "")]
        ordered = sort_rows(rows, [(col("a"), False)], SCHEMA)
        assert [r[0] for r in ordered] == [1, 3, None]
        ordered_desc = sort_rows(rows, [(col("a"), True)], SCHEMA)
        assert [r[0] for r in ordered_desc] == [3, 1, None]


class TestMisc:
    def test_distinct_emits_once(self):
        op, sink = make("distinct", {})
        op.push((1, 2))
        op.push((1, 2))
        op.push((3, 4))
        assert sink.rows == [(1, 2), (3, 4)]


class TestSymmetricHashJoin:
    def make_join(self, residual=None):
        left = Schema.of(("a", INT)).qualify("l")
        right = Schema.of(("b", INT), ("y", STR)).qualify("r")
        return make("shj", {
            "left_schema": left, "right_schema": right,
            "left_keys": [col("l.a")], "right_keys": [col("r.b")],
            "residual": residual,
        })

    def test_matches_emitted_either_arrival_order(self):
        op, sink = self.make_join()
        op.push((1,), port=0)
        op.push((1, "x"), port=1)  # probe finds left row
        op.push((2, "y"), port=1)
        op.push((2,), port=0)  # probe finds right row
        assert sorted(sink.rows) == [(1, 1, "x"), (2, 2, "y")]

    def test_column_order_always_left_then_right(self):
        op, sink = self.make_join()
        op.push((7, "z"), port=1)
        op.push((7,), port=0)
        assert sink.rows == [(7, 7, "z")]

    def test_duplicates_multiply(self):
        op, sink = self.make_join()
        op.push((1,), port=0)
        op.push((1,), port=0)
        op.push((1, "x"), port=1)
        assert len(sink.rows) == 2

    def test_residual_filters(self):
        residual = BinaryOp("=", col("r.y"), lit("keep"))
        op, sink = self.make_join(residual)
        op.push((1,), port=0)
        op.push((1, "keep"), port=1)
        op.push((1, "drop"), port=1)
        assert sink.rows == [(1, 1, "keep")]

    def test_no_cross_key_matches(self):
        op, sink = self.make_join()
        op.push((1,), port=0)
        op.push((2, "x"), port=1)
        assert sink.rows == []


class TestBloomStage:
    def test_buffers_until_control(self):
        from repro.util.bloom import BloomFilter

        sent = []

        class Ctx(StubCtx):
            def send_to_origin(self, payload):
                sent.append(payload)

        op = create_operator(Ctx(), OpSpec("x", "bloom_stage", {
            "side": "left", "key_exprs": [col("a")], "schema": SCHEMA,
            "capacity": 64,
        }))
        sink = Sink()
        op.wire(sink, 0)
        op.push((1, 0, ""))
        op.push((2, 0, ""))
        assert sink.rows == []
        op.flush()
        assert sent[0]["side"] == "left"
        # Opposite (right) filter admits key 1 only.
        other = BloomFilter.for_capacity(64)
        other.add((1,))
        op.control({"filters": {"right": other}})
        assert [r[0] for r in sink.rows] == [1]

    def test_missing_opposite_filter_releases_all(self):
        class Ctx(StubCtx):
            def send_to_origin(self, payload):
                pass

        op = create_operator(Ctx(), OpSpec("x", "bloom_stage", {
            "side": "right", "key_exprs": [col("a")], "schema": SCHEMA,
        }))
        sink = Sink()
        op.wire(sink, 0)
        op.push((5, 0, ""))
        op.control({"filters": {}})
        assert len(sink.rows) == 1

    def test_double_control_ignored(self):
        class Ctx(StubCtx):
            def send_to_origin(self, payload):
                pass

        op = create_operator(Ctx(), OpSpec("x", "bloom_stage", {
            "side": "left", "key_exprs": [col("a")], "schema": SCHEMA,
        }))
        sink = Sink()
        op.wire(sink, 0)
        op.push((5, 0, ""))
        op.control({"filters": {}})
        op.control({"filters": {}})
        assert len(sink.rows) == 1
