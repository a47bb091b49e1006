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

A batch carries everything its rows need downstream. On a paned plan
that includes the *pane* its rows belong to (``pane``; None for
unpaned rows): the paned scan, the paned group-by partial and
fetch-matches set it, ``take`` keeps it and ``Project`` copies it, and
the paned group-by and the pane-tagged exchange read it -- so no
operator keeps a "current pane" and no marker travels beside the rows.
"""

from itertools import compress


class RowBatch:
    """A schema-tagged group of rows with lazy rows<->columns duality.

    ``schema`` is optional: mid-pipeline batches (a Project's output)
    may carry ``None`` when no consumer needs name resolution --
    operators compile their expressions against the planner's schema at
    build time, not against the batch. ``pane`` is the pane every row
    of the batch belongs to on a paned plan, else None. The row or
    column lists passed in are taken over, not copied.
    """

    __slots__ = ("schema", "pane", "_rows", "_columns")

    def __init__(self, rows=None, columns=None, schema=None, pane=None):
        if rows is None and columns is None:
            raise ValueError("RowBatch needs rows or columns")
        self.schema = schema
        self.pane = pane
        self._rows = rows
        self._columns = columns

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
        """Rows where ``mask`` is truthy, as a new batch of this pane.

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
            return RowBatch(columns=kept, schema=self.schema, pane=self.pane)
        rows = self.rows()
        kept = list(compress(rows, mask))
        if len(kept) == len(rows):
            return self
        return RowBatch(rows=kept, schema=self.schema, pane=self.pane)

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
