"""Top-k: ORDER BY ... LIMIT k, network-aware.

A ``partial`` top-k runs before the wire (each node forwards only its
local top k, a classic bandwidth saver); the query site's fragment
runs one more top-k over every node's rows. Because top-k is
not decomposable the partial phase is *safe* only because every node's
true top k is a superset of its contribution to the global top k.

Row buffers are keyed per epoch so an overlapping-epoch standing plan
can cut every live epoch of its ring concurrently. A sliding window
(``WINDOW > EVERY``) is cut from scratch each epoch: the standing scan
re-emits the window's rows, since panes stop at the group-by.

Params: ``sort_keys`` (list of (Expr, descending?)), ``limit``,
``schema`` (input).
"""

import functools

from repro.core.batch import RowBatch
from repro.core.dataflow import EpochStateRing, Operator
from repro.core.operators import register_operator


def sort_rows(rows, sort_keys, schema):
    """``rows`` sorted best first, honouring per-key ASC/DESC.

    Each sort key evaluates as one column over the rows; a stable sort
    of row indices then compares those columns key by key.
    """
    batch = RowBatch(rows=rows, schema=schema)
    keys = [(expr.compile_batch(schema)(batch), desc)
            for expr, desc in sort_keys]

    def cmp(i, j):
        for values, desc in keys:
            a, b = values[i], values[j]
            if a == b:
                continue
            # None sorts last regardless of direction, like SQL NULLS LAST.
            if a is None:
                return 1
            if b is None:
                return -1
            if a < b:
                return 1 if desc else -1
            return -1 if desc else 1
        return 0

    order = sorted(range(len(rows)), key=functools.cmp_to_key(cmp))
    return [rows[i] for i in order]


@register_operator("topk")
class TopK(Operator):
    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        self._sort_keys = spec.params["sort_keys"]
        self._limit = spec.params["limit"]
        self._schema = spec.params["schema"]
        self._note = ctx.engine.note_rows_aggregated
        self._epochs = EpochStateRing(list)  # epoch -> buffered rows

    def push_batch(self, batch, port=0):
        """Buffer fill: one extend + one counter bump (the cut happens
        at flush)."""
        n = len(batch)
        if n == 0:
            return
        self._note(n)
        self._epochs.state(self._active_epoch()).extend(batch.rows())

    def flush(self):
        rows = self._epochs.state(self._active_epoch())
        # A None limit slices nothing off.
        ordered = sort_rows(rows, self._sort_keys, self._schema)[: self._limit]
        rows.clear()
        if ordered:
            self.emit_batch(RowBatch(rows=ordered))

    def seal_epoch(self, k):
        self._epochs.seal(k)

    def teardown(self):
        self._epochs.clear()
