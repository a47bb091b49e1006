"""Expression compilation and evaluation semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.core.batch import RowBatch
from repro.db.expressions import (
    BinaryOp,
    FuncCall,
    UnaryOp,
    col,
    conjuncts,
    equi_join_pairs,
    lit,
)
from repro.db.schema import Schema
from repro.db.types import INT, STR
from repro.util.errors import CatalogError, PlanError

SCHEMA = Schema.of(("a", INT), ("b", INT), ("s", STR))


def ev(expr, row):
    """``expr``'s value on one row: a one-row batch's one value."""
    (value,) = expr.compile_batch(SCHEMA)(RowBatch(rows=[row]))
    return value


class TestBasics:
    def test_column_ref(self):
        assert ev(col("b"), (1, 2, "x")) == 2

    def test_literal(self):
        assert ev(lit(42), (0, 0, "")) == 42

    def test_unknown_column_fails_at_compile(self):
        with pytest.raises(CatalogError):
            col("zzz").compile_batch(SCHEMA)

    def test_arithmetic(self):
        expr = BinaryOp("+", BinaryOp("*", col("a"), lit(10)), col("b"))
        assert ev(expr, (3, 4, "")) == 34

    def test_division_by_zero_is_null(self):
        assert ev(BinaryOp("/", col("a"), lit(0)), (5, 0, "")) is None
        assert ev(BinaryOp("%", col("a"), lit(0)), (5, 0, "")) is None

    def test_comparisons(self):
        assert ev(BinaryOp("<", col("a"), col("b")), (1, 2, "")) is True
        assert ev(BinaryOp(">=", col("a"), col("b")), (1, 2, "")) is False
        assert ev(BinaryOp("!=", col("a"), col("b")), (1, 2, "")) is True

    def test_unknown_operator_rejected(self):
        with pytest.raises(PlanError):
            BinaryOp("**", col("a"), col("b"))
        with pytest.raises(PlanError):
            UnaryOp("~", col("a"))


class TestNullSemantics:
    def test_arith_with_null_is_null(self):
        assert ev(BinaryOp("+", col("a"), lit(None)), (1, 0, "")) is None

    def test_comparison_with_null_is_null(self):
        assert ev(BinaryOp("=", col("a"), lit(None)), (1, 0, "")) is None

    def test_negate_null(self):
        assert ev(UnaryOp("-", lit(None)), (0, 0, "")) is None

    def test_null_comparison_is_falsy_in_filters(self):
        # The Select operator treats None as "drop the row".
        result = ev(BinaryOp(">", lit(None), lit(3)), (0, 0, ""))
        assert not result


class TestBooleans:
    def test_and_or(self):
        t = BinaryOp(">", col("b"), lit(0))
        f = BinaryOp("<", col("b"), lit(0))
        assert ev(BinaryOp("AND", t, t), (0, 5, "")) is True
        assert ev(BinaryOp("AND", t, f), (0, 5, "")) is False
        assert ev(BinaryOp("OR", f, t), (0, 5, "")) is True

    def test_not(self):
        expr = UnaryOp("NOT", BinaryOp("=", col("a"), lit(1)))
        assert ev(expr, (1, 0, "")) is False
        assert ev(expr, (2, 0, "")) is True


class TestFunctions:
    def test_abs(self):
        assert ev(FuncCall("abs", [UnaryOp("-", col("a"))]), (7, 0, "")) == 7

    def test_string_functions(self):
        assert ev(FuncCall("upper", [col("s")]), (0, 0, "hi")) == "HI"
        assert ev(FuncCall("lower", [lit("HI")]), (0, 0, "")) == "hi"
        assert ev(FuncCall("length", [col("s")]), (0, 0, "abcd")) == 4

    def test_string_functions_pass_null(self):
        assert ev(FuncCall("upper", [lit(None)]), (0, 0, "")) is None

    def test_coalesce(self):
        expr = FuncCall("coalesce", [lit(None), col("a"), lit(9)])
        assert ev(expr, (5, 0, "")) == 5

    def test_unknown_function(self):
        with pytest.raises(PlanError):
            FuncCall("frobnicate", [])


class TestAnalysis:
    def test_column_refs_collected(self):
        expr = BinaryOp("AND",
                        BinaryOp("=", col("a"), col("b")),
                        BinaryOp(">", col("a"), lit(1)))
        assert expr.column_refs() == {"a", "b"}

    def test_conjuncts_split(self):
        expr = BinaryOp("AND",
                        BinaryOp("AND", lit(True), lit(False)),
                        lit(True))
        assert len(conjuncts(expr)) == 3

    def test_conjuncts_do_not_split_or(self):
        expr = BinaryOp("OR", lit(True), lit(False))
        assert len(conjuncts(expr)) == 1

    def test_equi_join_pairs_extraction(self):
        left = Schema.of(("x", INT)).qualify("l")
        right = Schema.of(("y", INT)).qualify("r")
        pred = BinaryOp("AND",
                        BinaryOp("=", col("l.x"), col("r.y")),
                        BinaryOp(">", col("l.x"), lit(3)))
        pairs, residual = equi_join_pairs(pred, left, right)
        assert pairs == [("l.x", "r.y")]
        assert residual is not None

    def test_equi_join_pairs_swapped_sides(self):
        left = Schema.of(("x", INT)).qualify("l")
        right = Schema.of(("y", INT)).qualify("r")
        pred = BinaryOp("=", col("r.y"), col("l.x"))
        pairs, residual = equi_join_pairs(pred, left, right)
        assert pairs == [("l.x", "r.y")]
        assert residual is None

    def test_display_round_trips_structure(self):
        expr = BinaryOp("+", col("a"), lit(1))
        assert expr.display() == "(a + 1)"
        assert FuncCall("ABS", [col("a")]).display() == "ABS(a)"
        assert lit("x").display() == "'x'"


class TestPropertyArithmetic:
    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_addition_matches_python(self, x, y):
        expr = BinaryOp("+", col("a"), col("b"))
        assert ev(expr, (x, y, "")) == x + y

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_comparison_matches_python(self, x, y):
        expr = BinaryOp("<", col("a"), col("b"))
        assert ev(expr, (x, y, "")) == (x < y)

    @given(st.integers(-100, 100))
    def test_double_negation(self, x):
        expr = UnaryOp("-", UnaryOp("-", col("a")))
        assert ev(expr, (x, 0, "")) == x
