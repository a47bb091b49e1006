"""SQL lexer and parser."""

import pytest

from repro.core.logical import AggCall
from repro.core.sql import parse_query
from repro.core.sql.lexer import tokenize
from repro.db.expressions import BinaryOp, ColumnRef, FuncCall, Literal, UnaryOp
from repro.util.errors import SqlError


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]

    def test_identifiers_keep_case(self):
        tokens = tokenize("myTable")
        assert tokens[0].kind == "ident"
        assert tokens[0].value == "myTable"

    def test_numbers(self):
        tokens = tokenize("42 3.5")
        assert tokens[0].value == 42 and isinstance(tokens[0].value, int)
        assert tokens[1].value == 3.5 and isinstance(tokens[1].value, float)

    def test_qualified_name_not_decimal(self):
        tokens = tokenize("t.col")
        assert [t.value for t in tokens[:-1]] == ["t", ".", "col"]

    def test_strings_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SqlError):
            tokenize("'oops")

    def test_two_char_symbols(self):
        tokens = tokenize("<= >= != <>")
        assert [t.value for t in tokens[:-1]] == ["<=", ">=", "!=", "!="]

    def test_comments_ignored(self):
        tokens = tokenize("SELECT -- a comment\n x")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "x"]

    def test_unexpected_character(self):
        with pytest.raises(SqlError):
            tokenize("SELECT ~x")

    def test_eof_token(self):
        assert tokenize("")[-1].kind == "eof"


class TestParserBasics:
    def test_minimal_select(self):
        q = parse_query("SELECT a FROM t")
        assert q.tables == [("t", None)]
        assert len(q.select_items) == 1
        item, name = q.select_items[0]
        assert isinstance(item, ColumnRef) and name == "a"

    def test_aliases(self):
        q = parse_query("SELECT a AS x, b y FROM t AS u")
        assert q.select_items[0][1] == "x"
        assert q.select_items[1][1] == "y"
        assert q.tables == [("t", "u")]

    def test_table_alias_without_as(self):
        q = parse_query("SELECT r.a FROM t r")
        assert q.tables == [("t", "r")]

    def test_multiple_tables(self):
        q = parse_query("SELECT a FROM t1, t2 AS x, t3")
        assert q.tables == [("t1", None), ("t2", "x"), ("t3", None)]

    def test_default_output_name_strips_qualifier(self):
        q = parse_query("SELECT t.a FROM t")
        assert q.select_items[0][1] == "a"

    def test_star_rejected_with_hint(self):
        with pytest.raises(SqlError):
            parse_query("SELECT * FROM t")

    def test_where_parsed(self):
        q = parse_query("SELECT a FROM t WHERE a > 3 AND b = 'x'")
        assert isinstance(q.where, BinaryOp)
        assert q.where.op == "AND"

    def test_group_having_order_limit(self):
        q = parse_query(
            "SELECT a, SUM(b) AS s FROM t GROUP BY a HAVING s > 2 "
            "ORDER BY s DESC, a LIMIT 5"
        )
        assert len(q.group_by) == 1
        assert q.having is not None
        assert q.order_by[0][1] is True  # DESC
        assert q.order_by[1][1] is False  # default ASC
        assert q.limit == 5

    def test_limit_must_be_integer(self):
        with pytest.raises(SqlError):
            parse_query("SELECT a FROM t LIMIT 2.5")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlError):
            parse_query("SELECT a FROM t banana phone")


class TestAggregateParsing:
    def test_count_star(self):
        q = parse_query("SELECT COUNT(*) FROM t")
        item, name = q.select_items[0]
        assert isinstance(item, AggCall)
        assert item.func_name == "COUNT" and item.arg is None
        assert name == "COUNT(*)"

    def test_sum_with_expression(self):
        q = parse_query("SELECT SUM(a * 2) AS doubled FROM t")
        item, name = q.select_items[0]
        assert isinstance(item, AggCall)
        assert name == "doubled"

    def test_aggregates_mixed_with_columns(self):
        q = parse_query("SELECT a, MIN(b) AS lo, MAX(b) AS hi FROM t GROUP BY a")
        kinds = [type(item) for item, _ in q.select_items]
        assert kinds == [ColumnRef, AggCall, AggCall]

    def test_scalar_function_is_not_aggregate(self):
        q = parse_query("SELECT ABS(a) FROM t")
        item, _ = q.select_items[0]
        assert isinstance(item, FuncCall)


class TestExpressions:
    def expr_of(self, text):
        return parse_query("SELECT a FROM t WHERE " + text).where

    def test_precedence_and_over_or(self):
        e = self.expr_of("a = 1 OR b = 2 AND c = 3")
        assert e.op == "OR"
        assert e.right.op == "AND"

    def test_precedence_arith_over_comparison(self):
        e = self.expr_of("a + 1 < b * 2")
        assert e.op == "<"
        assert e.left.op == "+"
        assert e.right.op == "*"

    def test_parentheses_override(self):
        e = self.expr_of("(a = 1 OR b = 2) AND c = 3")
        assert e.op == "AND"
        assert e.left.op == "OR"

    def test_not(self):
        e = self.expr_of("NOT a = 1")
        assert isinstance(e, UnaryOp) and e.op == "NOT"

    def test_unary_minus(self):
        e = self.expr_of("a = -5")
        assert isinstance(e.right, UnaryOp)

    def test_literals(self):
        e = self.expr_of("a = TRUE OR a = NULL OR s = 'hi'")
        literals = []

        def walk(node):
            if isinstance(node, Literal):
                literals.append(node.value)
            for attr in ("left", "right", "operand"):
                child = getattr(node, attr, None)
                if child is not None:
                    walk(child)

        walk(e)
        assert True in literals and None in literals and "hi" in literals

    def test_qualified_columns(self):
        e = self.expr_of("t1.a = t2.b")
        assert e.left.name == "t1.a"
        assert e.right.name == "t2.b"


class TestContinuousClauses:
    def test_every_window_lifetime(self):
        q = parse_query(
            "SELECT SUM(v) AS s FROM t EVERY 30 SECONDS "
            "WINDOW 60 SECONDS LIFETIME 600 SECONDS"
        )
        assert q.every == 30.0
        assert q.window == 60.0
        assert q.lifetime == 600.0

    def test_every_alone(self):
        q = parse_query("SELECT SUM(v) AS s FROM t EVERY 15 SECONDS")
        assert q.every == 15.0
        assert q.window is None

    def test_missing_seconds_keyword(self):
        with pytest.raises(SqlError):
            parse_query("SELECT a FROM t EVERY 30")


class TestRecursiveParsing:
    SQL = (
        "WITH RECURSIVE reach AS ("
        "  SELECT src, dst FROM link "
        "UNION "
        "  SELECT r.src AS src, l.dst AS dst FROM reach AS r, link AS l "
        "  WHERE r.dst = l.src"
        ") SELECT src, dst FROM reach"
    )

    def test_shape(self):
        q = parse_query(self.SQL)
        assert q.recursive is not None
        assert q.recursive.name == "reach"
        assert q.recursive.base.tables == [("link", None)]
        assert ("reach", "r") in q.recursive.step.tables
        assert q.tables == [("reach", None)]

    def test_requires_union(self):
        bad = "WITH RECURSIVE r AS (SELECT a FROM t) SELECT a FROM r"
        with pytest.raises(SqlError):
            parse_query(bad)

    def test_options_merge(self):
        q = parse_query("SELECT a FROM t", options={"join_strategy": "bloom"})
        assert q.options["join_strategy"] == "bloom"
