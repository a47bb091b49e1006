"""Columnar row batches: the only unit rows move in between operators.

Rows everywhere else in the engine are positional tuples resolved
against a :class:`repro.db.schema.Schema`. A :class:`RowBatch` is a
group of such rows carried *together*, with a dual representation:

* **rows** -- a list of positional tuples (what scans buffer, what the
  wire's row shape decodes to);
* **columns** -- one Python list per attribute (what column kernels
  loop over, and what the columnar wire shape serializes).

Either side is materialized lazily from the other on first access, so
a batch built from a scan's pending buffer costs nothing until an
operator asks for columns, and a column-built batch (a Project's
output) costs nothing until a consumer iterates its rows. Batches are
*immutable by convention*: operators never mutate a batch they
received, and derived batches (``take``, ``project``) share column
lists with their source where possible. That is what lets a prefix
stage hand one wave's batch to every member in place: the first
member's predicate builds the columns, every later one reads them.

The row-dict adapter seam lives here too (``from_dicts`` /
``to_dicts``), delegating to the schema's positional adapters -- the
boundary where external dict-shaped rows enter or leave the dataflow.
"""

from itertools import compress


class RowBatch:
    """A schema-tagged group of rows with lazy rows<->columns duality.

    ``schema`` is optional: mid-pipeline batches (a Project's output)
    may carry ``None`` when no consumer needs name resolution --
    operators compile their expressions against the planner's schema at
    build time, not against the batch.
    """

    __slots__ = ("schema", "_rows", "_columns")

    def __init__(self, rows=None, columns=None, schema=None):
        if rows is None and columns is None:
            raise ValueError("RowBatch needs rows or columns")
        self.schema = schema
        self._rows = rows
        self._columns = columns

    @classmethod
    def from_rows(cls, rows, schema=None):
        """Wrap a list of positional tuples (the list is taken over)."""
        return cls(rows=list(rows), schema=schema)

    @classmethod
    def from_columns(cls, columns, schema=None):
        """Wrap per-column lists (equal length; the lists are taken over)."""
        return cls(columns=list(columns), schema=schema)

    @classmethod
    def from_dicts(cls, dicts, schema):
        """Adapter in: dict-shaped rows -> positional batch via schema."""
        return cls(rows=[schema.row_from_dict(d) for d in dicts],
                   schema=schema)

    def to_dicts(self, schema=None):
        """Adapter out: positional rows -> dicts via schema."""
        schema = schema if schema is not None else self.schema
        if schema is None:
            raise ValueError("RowBatch.to_dicts needs a schema")
        return [schema.row_to_dict(row) for row in self.rows()]

    def __len__(self):
        if self._rows is not None:
            return len(self._rows)
        columns = self._columns
        return len(columns[0]) if columns else 0

    def rows(self):
        """The batch as a list of positional tuples (materialized once)."""
        if self._rows is None:
            self._rows = list(zip(*self._columns))
        return self._rows

    def iter_rows(self):
        """Iterate positional tuples."""
        return iter(self.rows())

    def columns(self):
        """The batch as per-column lists (materialized once).

        A batch of zero rows transposes to one empty list per schema
        attribute when a schema is attached (callers indexing columns
        by position stay safe), and to no columns otherwise.
        """
        if self._columns is None:
            if self._rows:
                self._columns = [list(col) for col in zip(*self._rows)]
            elif self.schema is not None:
                self._columns = [[] for _ in self.schema.names]
            else:
                self._columns = []
        return self._columns

    def column(self, index):
        """One column as a list (shared, do not mutate)."""
        return self.columns()[index]

    def take(self, mask):
        """Rows where ``mask`` is truthy, as a new batch.

        Truthiness -- not ``is True`` -- so a predicate column holding
        ``None`` (SQL three-valued logic) filters exactly like an
        ``if predicate(row)`` test. Returns ``self`` when
        everything passes (the common all-match fast path). Once this
        batch has columns the result is columns too, so a filter over a
        batch whose predicate already transposed it never builds rows.
        """
        columns = self._columns
        if columns:
            kept = [list(compress(col, mask)) for col in columns]
            if len(kept[0]) == len(columns[0]):
                return self
            return RowBatch(columns=kept, schema=self.schema)
        rows = self.rows()
        kept = list(compress(rows, mask))
        if len(kept) == len(rows):
            return self
        return RowBatch(rows=kept, schema=self.schema)

    def project(self, cols):
        """A new batch of the named (or positional) columns, in order.

        ``cols`` may be attribute names (resolved through the schema)
        or integer positions. Column lists are shared with the source
        batch, not copied.
        """
        schema = self.schema
        indices = [
            c if isinstance(c, int) else schema.index_of(c) for c in cols
        ]
        out_schema = None
        if schema is not None and all(not isinstance(c, int) for c in cols):
            out_schema = schema.project(list(cols))
        columns = self.columns()
        return RowBatch(columns=[columns[i] for i in indices],
                        schema=out_schema)

    def __repr__(self):
        shape = "?" if self._rows is None and self._columns is None else (
            "{}x{}".format(len(self), len(self.columns()))
            if self._columns is not None
            else "{} rows".format(len(self))
        )
        return "RowBatch({})".format(shape)


def columnar_wire(rows):
    """Per-column lists for ``rows`` if they are wire-columnar, else None.

    The columnar wire shape only applies to uniform positional tuples
    (every row the same arity >= 1): scans' data rows and group-by
    ``(gvals, states)`` pairs both qualify. Anything ragged falls back
    to the row shape.
    """
    if not rows:
        return None
    first = rows[0]
    if not isinstance(first, tuple):
        return None
    arity = len(first)
    if arity == 0:
        return None
    for row in rows:
        if not isinstance(row, tuple) or len(row) != arity:
            return None
    return [list(col) for col in zip(*rows)]
