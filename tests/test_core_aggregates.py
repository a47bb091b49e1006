"""Aggregate functions: init/add/merge/final algebra.

The key invariant for in-network aggregation: folding values through
any tree of merges must equal folding them sequentially -- otherwise
the aggregation tree would change answers depending on topology.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.aggregates import AggSpec, aggregate_by_name
from repro.core.batch import RowBatch
from repro.db.expressions import col
from repro.db.schema import Schema
from repro.db.types import FLOAT
from repro.util.errors import PlanError

values = st.lists(st.integers(-1000, 1000), min_size=0, max_size=60)


def fold(agg, items):
    state = agg.init()
    for item in items:
        state = agg.add(state, item)
    return state


class TestIndividualAggregates:
    def test_count_star_counts_everything(self):
        agg = aggregate_by_name("COUNT(*)")
        assert agg.final(fold(agg, [1, None, "x"])) == 3

    def test_count_skips_nulls(self):
        agg = aggregate_by_name("COUNT")
        assert agg.final(fold(agg, [1, None, 2, None])) == 2

    def test_sum_of_nothing_is_null(self):
        agg = aggregate_by_name("SUM")
        assert agg.final(fold(agg, [])) is None
        assert agg.final(fold(agg, [None, None])) is None

    def test_sum(self):
        agg = aggregate_by_name("SUM")
        assert agg.final(fold(agg, [1, 2, None, 3])) == 6

    def test_min_max(self):
        assert aggregate_by_name("MIN").final(
            fold(aggregate_by_name("MIN"), [3, 1, None, 2])) == 1
        assert aggregate_by_name("MAX").final(
            fold(aggregate_by_name("MAX"), [3, 1, None, 2])) == 3

    def test_avg(self):
        agg = aggregate_by_name("AVG")
        assert agg.final(fold(agg, [2, 4, None, 6])) == 4

    def test_avg_of_nothing_is_null(self):
        agg = aggregate_by_name("AVG")
        assert agg.final(fold(agg, [])) is None

    def test_unknown_aggregate(self):
        with pytest.raises(PlanError):
            aggregate_by_name("MEDIAN")

    def test_lookup_case_insensitive(self):
        assert aggregate_by_name("sum") is aggregate_by_name("SUM")


class TestMergeAlgebra:
    @pytest.mark.parametrize("name", ["COUNT(*)", "COUNT", "SUM", "MIN", "MAX", "AVG"])
    @given(data=st.data())
    def test_split_merge_equals_sequential(self, name, data):
        items = data.draw(values)
        split = data.draw(st.integers(0, len(items)))
        agg = aggregate_by_name(name)
        left = fold(agg, items[:split])
        right = fold(agg, items[split:])
        assert agg.final(agg.merge(left, right)) == agg.final(fold(agg, items))

    @pytest.mark.parametrize("name", ["COUNT(*)", "SUM", "MIN", "MAX", "AVG"])
    @given(data=st.data())
    def test_merge_commutative(self, name, data):
        a = data.draw(values)
        b = data.draw(values)
        agg = aggregate_by_name(name)
        sa, sb = fold(agg, a), fold(agg, b)
        assert agg.final(agg.merge(sa, sb)) == agg.final(agg.merge(sb, sa))

    @pytest.mark.parametrize("name", ["COUNT(*)", "SUM", "MIN", "MAX", "AVG"])
    @given(data=st.data())
    def test_merge_with_empty_is_identity(self, name, data):
        items = data.draw(values)
        agg = aggregate_by_name(name)
        state = fold(agg, items)
        empty = agg.init()
        assert agg.final(agg.merge(state, empty)) == agg.final(state)


class TestAggSpec:
    def test_count_with_no_arg_becomes_count_star(self):
        spec = AggSpec("COUNT", None, "n")
        assert spec.agg.name == "COUNT(*)"

    def test_compile_arg_batch(self):
        schema = Schema.of(("v", FLOAT))
        spec = AggSpec("SUM", col("v"), "total")
        batch = RowBatch.from_rows([(3.5,), (1.0,)], schema)
        assert spec.compile_arg_batch(schema)(batch) == [3.5, 1.0]

    def test_compile_no_arg_returns_none(self):
        spec = AggSpec("COUNT", None, "n")
        schema = Schema.of(("v", FLOAT))
        batch = RowBatch.from_rows([(1,), (2,)], schema)
        assert spec.compile_arg_batch(schema)(batch) == [None, None]

    def test_repr_readable(self):
        assert "SUM" in repr(AggSpec("SUM", col("v"), "total"))
