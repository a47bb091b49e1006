"""Operator unit tests with a stub context (no network)."""

import pytest
from stubs import StubCtx

from repro.core.aggregates import AggSpec
from repro.core.batch import RowBatch
from repro.core.dataflow import Operator
from repro.core.opgraph import OpSpec
from repro.core.operators import _REGISTRY, create_operator
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
        have = set(_REGISTRY)
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
            base.push_batch(RowBatch(rows=[(1,)]))
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

    def test_ascending_keeps_the_smallest(self):
        op, sink = make("topk", {
            "sort_keys": [(col("a"), False)], "limit": 2, "schema": SCHEMA,
        })
        op.push_batch(RowBatch(
            rows=[(a, 0, "") for a in (3, 1, 4, 1, 5)], schema=SCHEMA))
        op.flush()
        assert [r[0] for r in sink.rows] == [1, 1]

    def test_limit_above_row_count_emits_every_row_sorted(self):
        op, sink = make("topk", {
            "sort_keys": [(col("a"), True)], "limit": 10, "schema": SCHEMA,
        })
        for a in (2, 7, 5):
            op.push((a, 0, ""))
        op.flush()
        assert [r[0] for r in sink.rows] == [7, 5, 2]

    def test_no_limit_sorts_without_cutting(self):
        op, sink = make("topk", {
            "sort_keys": [(col("b"), False)], "limit": None, "schema": SCHEMA,
        })
        for b in (9, 3, 6, 3):
            op.push((0, b, ""))
        op.flush()
        assert [r[1] for r in sink.rows] == [3, 3, 6, 9]

    def test_flush_empties_the_buffer(self):
        op, sink = make("topk", {
            "sort_keys": [(col("a"), True)], "limit": 2, "schema": SCHEMA,
        })
        op.flush()
        assert sink.rows == []
        op.push((4, 0, ""))
        op.flush()
        op.flush()
        assert sink.rows == [(4, 0, "")]

    def test_live_epochs_are_cut_apart(self):
        op, sink = make("topk", {
            "sort_keys": [(col("a"), True)], "limit": 1, "schema": SCHEMA,
        })
        ctx = op.ctx
        for epoch, values in ((1, (3, 8)), (2, (5, 1))):
            with ctx.in_epoch(epoch):
                for a in values:
                    op.push((a, 0, ""))
        with ctx.in_epoch(2):
            op.flush()
        with ctx.in_epoch(1):
            op.flush()
        assert [r[0] for r in sink.rows] == [5, 8]

    def test_sealed_epoch_drops_its_rows(self):
        op, sink = make("topk", {
            "sort_keys": [(col("a"), True)], "limit": 3, "schema": SCHEMA,
        })
        with op.ctx.in_epoch(1):
            op.push((9, 0, ""))
        op.seal_epoch(1)
        with op.ctx.in_epoch(1):
            op.flush()
        assert sink.rows == []

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

    def _stage(self, side="left", sent=None):
        class Ctx(StubCtx):
            def send_to_origin(self, payload):
                if sent is not None:
                    sent.append(payload)

        op = create_operator(Ctx(), OpSpec("x", "bloom_stage", {
            "side": side, "key_exprs": [col("a")], "schema": SCHEMA,
            "capacity": 64, "group": "g",
        }))
        sink = Sink()
        op.wire(sink, 0)
        return op, sink

    @staticmethod
    def _filter_of(*keys):
        from repro.util.bloom import BloomFilter

        bloom = BloomFilter.for_capacity(64)
        for key in keys:
            bloom.add((key,))
        return bloom

    def test_flush_ships_the_epochs_own_filter(self):
        sent = []
        op, _sink = self._stage(side="right", sent=sent)
        for epoch, a in ((1, 11), (2, 22)):
            with op.ctx.in_epoch(epoch):
                op.push((a, 0, ""))
        with op.ctx.in_epoch(2):
            op.flush()
        (payload,) = sent
        assert (payload["op"], payload["epoch"], payload["side"],
                payload["op_id"]) == ("qbloom", 2, "right", "g")
        assert (22,) in payload["filter"]
        assert (11,) not in payload["filter"]

    def test_release_is_scoped_to_its_epoch(self):
        op, sink = self._stage()
        for epoch, keys in ((1, (1, 2)), (2, (1, 3))):
            with op.ctx.in_epoch(epoch):
                for a in keys:
                    op.push((a, epoch, ""))
        with op.ctx.in_epoch(1):
            op.control({"filters": {"right": self._filter_of(1)}})
        assert sink.rows == [(1, 1, "")]
        with op.ctx.in_epoch(2):
            op.control({"filters": {"right": self._filter_of(1, 3)}})
        assert sink.rows == [(1, 1, ""), (1, 2, ""), (3, 2, "")]

    def test_sealed_epoch_drops_late_filters(self):
        op, sink = self._stage()
        with op.ctx.in_epoch(1):
            op.push((1, 0, ""))
        op.seal_epoch(1)
        with op.ctx.in_epoch(1):
            op.control({"filters": {}})
        assert sink.rows == []
