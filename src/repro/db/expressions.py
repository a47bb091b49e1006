"""Scalar expression trees, compiled to closures over row tuples.

Expressions appear in SELECT lists, WHERE/HAVING predicates and join
conditions. ``expr.compile(schema)`` resolves column names to positions
once and returns a plain function of the row, so per-tuple evaluation
does no name lookups -- the standard interpreted-engine compromise.

SQL three-valued logic is simplified to Python semantics with one
carve-out: any comparison or arithmetic against None yields None, and
None is falsy in predicates, which matches the observable behaviour of
SQL WHERE for the queries PIER runs.

Vectorized operators use ``expr.compile_batch(schema)`` instead: the
returned function takes a :class:`repro.core.batch.RowBatch` and
yields one *value list* (one entry per row), computed with column
loops. Every override must be value-identical to mapping the row
closure over the batch -- including the None carve-out -- and the base
class guarantees it by defaulting to exactly that mapping.
"""

from repro.util.errors import PlanError


class Expr:
    """Base class. Subclasses implement compile/column_refs/display."""

    def compile(self, schema):
        raise NotImplementedError

    def compile_batch(self, schema):
        """Compile to a batch evaluator: RowBatch -> list of values.

        The fallback maps the row closure over the batch, so every
        expression kind works on batches; hot kinds override with
        column loops: a column reference returns the batch's own
        column (shared, so a batch several filters read is transposed
        once), a comparison with a non-NULL constant is one
        comprehension over the other side's values, and every other
        binary, unary or function call maps its operator over its
        inputs' value lists.
        """
        fn = self.compile(schema)
        return lambda batch: [fn(row) for row in batch.iter_rows()]

    def column_refs(self):
        """All column names this expression reads (for pushdown analysis)."""
        return set()

    def display(self):
        raise NotImplementedError

    def __repr__(self):
        return "Expr({})".format(self.display())


class ColumnRef(Expr):
    def __init__(self, name):
        self.name = name

    def compile(self, schema):
        index = schema.index_of(self.name)
        return lambda row: row[index]

    def compile_batch(self, schema):
        index = schema.index_of(self.name)
        # The batch's own column list, shared: callers must not mutate.
        return lambda batch: batch.column(index)

    def column_refs(self):
        return {self.name}

    def display(self):
        return self.name


class Literal(Expr):
    def __init__(self, value):
        self.value = value

    def compile(self, schema):
        value = self.value
        return lambda row: value

    def compile_batch(self, schema):
        value = self.value
        return lambda batch: [value] * len(batch)

    def display(self):
        if isinstance(self.value, str):
            return "'{}'".format(self.value)
        return repr(self.value)


def _null_safe(fn):
    def wrapped(a, b):
        if a is None or b is None:
            return None
        return fn(a, b)

    return wrapped


_BINARY_FNS = {
    "+": _null_safe(lambda a, b: a + b),
    "-": _null_safe(lambda a, b: a - b),
    "*": _null_safe(lambda a, b: a * b),
    "/": _null_safe(lambda a, b: a / b if b != 0 else None),
    "%": _null_safe(lambda a, b: a % b if b != 0 else None),
    "=": _null_safe(lambda a, b: a == b),
    "!=": _null_safe(lambda a, b: a != b),
    "<": _null_safe(lambda a, b: a < b),
    "<=": _null_safe(lambda a, b: a <= b),
    ">": _null_safe(lambda a, b: a > b),
    ">=": _null_safe(lambda a, b: a >= b),
    "AND": lambda a, b: bool(a) and bool(b),
    "OR": lambda a, b: bool(a) or bool(b),
}

# Column kernels for a comparison with a constant ``c`` on the right:
# one comprehension each, value-identical to mapping the row closure
# (None in, None out). A constant on the left uses the flipped kernel.
_COMPARE_KERNELS = {
    "=": lambda vs, c: [None if v is None else v == c for v in vs],
    "!=": lambda vs, c: [None if v is None else v != c for v in vs],
    "<": lambda vs, c: [None if v is None else v < c for v in vs],
    "<=": lambda vs, c: [None if v is None else v <= c for v in vs],
    ">": lambda vs, c: [None if v is None else v > c for v in vs],
    ">=": lambda vs, c: [None if v is None else v >= c for v in vs],
}
_FLIPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class BinaryOp(Expr):
    def __init__(self, op, left, right):
        op = op.upper() if op.upper() in ("AND", "OR") else op
        if op not in _BINARY_FNS:
            raise PlanError("unknown binary operator {!r}".format(op))
        self.op = op
        self.left = left
        self.right = right

    def compile(self, schema):
        fn = _BINARY_FNS[self.op]
        left = self.left.compile(schema)
        right = self.right.compile(schema)
        return lambda row: fn(left(row), right(row))

    def compile_batch(self, schema):
        kernel = self._constant_kernel(schema)
        if kernel is not None:
            return kernel
        fn = _BINARY_FNS[self.op]
        left = self.left.compile_batch(schema)
        right = self.right.compile_batch(schema)
        return lambda batch: list(map(fn, left(batch), right(batch)))

    def _constant_kernel(self, schema):
        """A comparison with a non-NULL literal as one column loop, or
        None when this is not one."""
        op, other, literal = self.op, self.left, self.right
        if isinstance(other, Literal):
            op, other, literal = _FLIPPED.get(op), self.right, self.left
        if (op not in _COMPARE_KERNELS or not isinstance(literal, Literal)
                or literal.value is None):
            return None
        kernel = _COMPARE_KERNELS[op]
        values = other.compile_batch(schema)
        constant = literal.value
        return lambda batch: kernel(values(batch), constant)

    def column_refs(self):
        return self.left.column_refs() | self.right.column_refs()

    def display(self):
        return "({} {} {})".format(self.left.display(), self.op, self.right.display())


class UnaryOp(Expr):
    def __init__(self, op, operand):
        op = op.upper()
        if op not in ("NOT", "-"):
            raise PlanError("unknown unary operator {!r}".format(op))
        self.op = op
        self.operand = operand

    def compile(self, schema):
        operand = self.operand.compile(schema)
        if self.op == "NOT":
            return lambda row: not operand(row)
        return lambda row: None if operand(row) is None else -operand(row)

    def compile_batch(self, schema):
        operand = self.operand.compile_batch(schema)
        if self.op == "NOT":
            return lambda batch: [not v for v in operand(batch)]
        return lambda batch: [
            None if v is None else -v for v in operand(batch)
        ]

    def column_refs(self):
        return self.operand.column_refs()

    def display(self):
        return "({} {})".format(self.op, self.operand.display())


_SCALAR_FNS = {
    "ABS": abs,
    "LOWER": lambda s: None if s is None else s.lower(),
    "UPPER": lambda s: None if s is None else s.upper(),
    "LENGTH": lambda s: None if s is None else len(s),
    "ROUND": round,
    "COALESCE": lambda *args: next((a for a in args if a is not None), None),
}


class FuncCall(Expr):
    def __init__(self, name, args):
        name = name.upper()
        if name not in _SCALAR_FNS:
            raise PlanError("unknown scalar function {!r}".format(name))
        self.name = name
        self.args = list(args)

    def compile(self, schema):
        fn = _SCALAR_FNS[self.name]
        compiled = [a.compile(schema) for a in self.args]
        return lambda row: fn(*(c(row) for c in compiled))

    def compile_batch(self, schema):
        if not self.args:
            return super().compile_batch(schema)
        fn = _SCALAR_FNS[self.name]
        compiled = [a.compile_batch(schema) for a in self.args]
        return lambda batch: list(
            map(fn, *(c(batch) for c in compiled))
        )

    def column_refs(self):
        refs = set()
        for arg in self.args:
            refs |= arg.column_refs()
        return refs

    def display(self):
        return "{}({})".format(self.name, ", ".join(a.display() for a in self.args))


def col(name):
    """Shorthand constructor for the algebraic ("boxes and arrows") API."""
    return ColumnRef(name)


def lit(value):
    return Literal(value)


def conjuncts(expr):
    """Split a predicate into its top-level AND-ed conjuncts."""
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def equi_join_pairs(expr, left_schema, right_schema):
    """Extract equi-join column pairs from a predicate.

    Returns ``(pairs, residual)`` where pairs is a list of
    ``(left_column, right_column)`` and residual is the AND of the
    remaining conjuncts (or None). The planner uses this to pick the
    rehash keys for a DHT join.
    """
    pairs = []
    residual = []
    for conj in conjuncts(expr):
        matched = False
        if (
            isinstance(conj, BinaryOp)
            and conj.op == "="
            and isinstance(conj.left, ColumnRef)
            and isinstance(conj.right, ColumnRef)
        ):
            lhs, rhs = conj.left.name, conj.right.name
            if left_schema.has_column(lhs) and right_schema.has_column(rhs):
                pairs.append((lhs, rhs))
                matched = True
            elif left_schema.has_column(rhs) and right_schema.has_column(lhs):
                pairs.append((rhs, lhs))
                matched = True
        if not matched:
            residual.append(conj)
    residual_expr = None
    for conj in residual:
        residual_expr = conj if residual_expr is None else BinaryOp("AND", residual_expr, conj)
    return pairs, residual_expr
