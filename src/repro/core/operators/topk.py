"""Top-k: ORDER BY ... LIMIT k, network-aware.

A ``partial`` top-k runs before the wire (each node forwards only its
local top k, a classic bandwidth saver); the query site applies the
same sort/cut again globally in its finishing step. Because top-k is
not decomposable the partial phase is *safe* only because every node's
true top k is a superset of its contribution to the global top k.

Row buffers are keyed per epoch so an overlapping-epoch standing plan
can cut every live epoch of its ring concurrently. *Paned* instances (standing plans
with ``WINDOW > EVERY``) buffer per pane instead: top-k has no inverse,
but a window's top k can only come from its panes' top k's, so each
closed pane is cut once to ``k`` rows and every epoch's flush merges
the window's pane caches -- O(k x panes) sorted per epoch instead of
re-buffering the whole overlap.

Params: ``sort_keys`` (list of (Expr, descending?)), ``limit``,
``schema`` (input), optional ``paned`` geometry.
"""

import functools

from repro.core.batch import RowBatch
from repro.core.dataflow import EpochStateRing, Operator
from repro.core.operators import register_operator
from repro.db.window import window_pane_range


def make_sort_cmp(sort_keys, schema):
    """A comparator over rows honouring per-key ASC/DESC."""
    compiled = [(expr.compile(schema), desc) for expr, desc in sort_keys]

    def cmp(row_a, row_b):
        for fn, desc in compiled:
            a, b = fn(row_a), fn(row_b)
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

    return cmp


def sort_rows(rows, sort_keys, schema):
    """Sort rows by the compiled comparator (best first)."""
    return sorted(rows, key=functools.cmp_to_key(make_sort_cmp(sort_keys, schema)))


@register_operator("topk")
class TopK(Operator):
    """Params additionally accept ``replay`` (aggregate-plan top-k):
    in replay mode the buffer participates in streaming refinement --
    a cumulative upstream re-emission resets it, and its own flush
    re-emits without clearing."""

    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        self._sort_keys = spec.params["sort_keys"]
        self._limit = spec.params["limit"]
        self._schema = spec.params["schema"]
        self._replay = spec.params.get("replay", False)
        self._note = ctx.engine.note_rows_aggregated
        # epoch -> {"rows", "flushed", "timer"}; sealing cancels the
        # epoch's pending replay reflush with its state.
        self._epochs = EpochStateRing(
            lambda: {"rows": [], "flushed": False, "timer": None},
            on_seal=self._cancel_reflush,
        )
        self._paned = bool(spec.params.get("paned"))
        if self._paned:
            geometry = spec.params["paned"]
            self._panes_per_every = geometry["every"]
            self._panes_per_window = geometry["window"]
            self._panes = {}  # pane -> rows (cut to limit once closed)
            self._pane_cut = set()
            self._current_pane = None

    def _cancel_reflush(self, entry):
        if entry["timer"] is not None:
            self.ctx.dht.cancel_timer(entry["timer"])
            entry["timer"] = None

    def open_pane(self, pane):
        self._current_pane = pane

    def push_batch(self, batch, port=0):
        """Buffer fill: one extend + one counter bump (the cut happens
        at flush)."""
        n = len(batch)
        if n == 0:
            return
        self._note(n)
        rows = batch.rows()
        if self._paned:
            self._panes.setdefault(self._current_pane, []).extend(rows)
            # A straggler landing in an already-cut pane re-opens it
            # (its cached cut no longer reflects all of its rows; the
            # cut-then-extend superset property keeps this safe).
            self._pane_cut.discard(self._current_pane)
            return
        entry = self._epochs.state(self._active_epoch())
        entry["rows"].extend(rows)
        if self._replay and entry["flushed"] and entry["timer"] is None:
            entry["timer"] = self.ctx.dht.set_timer(
                0.2, self._reflush, self._active_epoch()
            )

    def _reflush(self, epoch):
        self._run_in_epoch(epoch, self.flush)

    def reset_batch(self):
        if self._replay:
            self._epochs.state(self._active_epoch())["rows"] = []
        super().reset_batch()

    def _cut(self, rows):
        ordered = sort_rows(rows, self._sort_keys, self._schema)
        if self._limit is not None:
            ordered = ordered[: self._limit]
        return ordered

    def flush(self):
        if self._paned:
            self._flush_paned(self._active_epoch())
            return
        entry = self._epochs.state(self._active_epoch())
        self._cancel_reflush(entry)
        entry["flushed"] = True
        ordered = self._cut(entry["rows"])
        if self._replay:
            self.reset_batch()
        else:
            entry["rows"] = []
        self._emit_cut(ordered)

    def _flush_paned(self, epoch):
        """Assemble epoch ``epoch``'s top k from its panes' top k's.

        Every pane in the window closed with this epoch's boundary, so
        each can be cut to ``limit`` rows once and reused by every
        later window that still covers it.
        """
        lo, hi = window_pane_range(
            epoch, self._panes_per_every, self._panes_per_window
        )
        self._panes = {p: r for p, r in self._panes.items() if p >= lo}
        self._pane_cut = {p for p in self._pane_cut if p >= lo}
        candidates = []
        for p in range(lo, hi):
            rows = self._panes.get(p)
            if rows is None:
                continue
            if p not in self._pane_cut:
                rows = self._panes[p] = self._cut(rows)
                self._pane_cut.add(p)
            candidates.extend(rows)
        self._emit_cut(self._cut(candidates))

    def _emit_cut(self, ordered):
        if ordered:
            self.emit_batch(RowBatch(rows=ordered))

    def seal_epoch(self, k):
        self._epochs.seal(k)

    def teardown(self):
        self._epochs.clear()
        if self._paned:
            self._panes = {}
            self._pane_cut = set()
