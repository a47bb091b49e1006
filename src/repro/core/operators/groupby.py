"""Group-by aggregation in two network phases.

``partial`` instances run where the data lives: they fold raw rows into
per-group aggregate states and, at their flush deadline, emit compact
``(group_values, states)`` pairs -- these are what the exchange ships
(and what the aggregation tree merges per hop). ``final`` instances run
at each group's DHT owner: they merge arriving partials and emit the
merged pairs at their own deadline. The query site runs one more final
over every owner's pairs, which emits finished rows.

A node with zero matching rows emits nothing, so global aggregates
naturally report over the *responding* nodes only -- the semantics
Figure 1 of the paper plots.

Both operators key their held state by ``ctx.active_epoch`` (one
``EpochStateRing`` entry per live epoch), so an overlapping-epoch
standing execution can run every live epoch's aggregation concurrently
through one instance.

*Paned* plans (``params["paned"]``, standing plans with
``WINDOW > EVERY``) go further. Rows arrive in batches of one pane
(``RowBatch.pane``, set by the scan) and the partial ships each pane's
**increment** exactly once, as a batch of that pane, which the
pane-tagged exchange stamps onto its messages. The *final* reads the
pane off each arriving batch, holds the window's pane partials at the
group's owner and assembles every epoch's window there
(:class:`PaneWindow`). The overlap therefore never crosses the wire
again: per epoch only the panes that actually grew travel, and the
final folds O(changed panes) state rows instead of every group's full
window state from every node.

Params (partial): ``group_exprs``, ``agg_specs``, ``schema``, optional
``paned`` geometry (``{"width", "every", "window"}``). Params (final):
``agg_specs``, optional ``paned``, and ``finalize`` (the query site's:
emit group columns then each aggregate's ``final``, not pairs).
"""

from repro.core.aggregates import merge_into
from repro.core.batch import RowBatch
from repro.core.dataflow import EpochStateRing, Operator
from repro.core.operators import register_operator
from repro.db.expressions import ColumnRef
from repro.db.window import window_pane_range


class PaneWindow:
    """Per-pane partial states plus per-epoch window assembly.

    A paned final's pane store: it merges pane *increments* arriving
    over the exchange, and :meth:`assemble` re-merges the window's live
    panes into each epoch's answer -- O(panes) merges per epoch, never
    O(rows). Every assembly reads the raw panes and keeps no running
    state, so a pane that grows after an epoch read it (a late
    increment, such as a boundary-straggler row shipped an epoch later)
    is simply in the next assembly, and the answer is exactly what a
    from-scratch merge of the window's partials gives -- SUM over only
    NULLs stays NULL, and a large value leaving the window takes
    nothing with it.

    ``retain_panes`` keeps that many pane ranges behind the newest
    window's low edge: under an overlapping-epoch ring an *older*
    still-open epoch can reflush (streaming refinement) after the
    newest epoch already advanced the window, and its re-assembly needs
    those panes to still exist.
    """

    def __init__(self, agg_specs, retain_panes):
        self._specs = agg_specs
        self._retain = retain_panes
        self._panes = {}  # pane -> {gvals: [states]}

    def entry(self, pane, gvals):
        """The mutable state list for (pane, group), created on first
        fold."""
        store = self._panes.setdefault(pane, {})
        states = store.get(gvals)
        if states is None:
            states = store[gvals] = [s.agg.init() for s in self._specs]
        return states

    def assemble(self, lo, hi):
        """``(gvals, states)`` pairs for the window ``[lo, hi)``; drops
        the panes no window still to come (or still open) can read."""
        cutoff = lo - self._retain
        self._panes = {p: d for p, d in self._panes.items() if p >= cutoff}
        merged = {}
        for p in range(lo, hi):
            for gvals, states in self._panes.get(p, {}).items():
                held = merged.get(gvals)
                if held is None:
                    merged[gvals] = list(states)
                else:
                    merge_into(held, self._specs, states)
        return [(gvals, tuple(states)) for gvals, states in merged.items()]

    def clear(self):
        self._panes = {}


def _emit_states(op, pairs, pane=None):
    """One flush's ``(gvals, states)`` pairs, out of ``op`` as one
    batch of ``pane``."""
    rows = [(tuple(gvals), tuple(states)) for gvals, states in pairs]
    if rows:
        op.emit_batch(RowBatch(rows=rows, pane=pane))


@register_operator("groupby_partial")
class GroupByPartial(Operator):
    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        schema = spec.params["schema"]
        group_exprs = spec.params["group_exprs"]
        self._batch_group_fns = [e.compile_batch(schema) for e in group_exprs]
        self._agg_specs = spec.params["agg_specs"]
        self._batch_arg_fns = [
            a.compile_arg_batch(schema) for a in self._agg_specs
        ]
        self._note = ctx.engine.note_rows_aggregated
        self._epochs = EpochStateRing(dict)  # epoch -> {gvals: [states]}
        self._paned = bool(spec.params.get("paned"))
        if self._paned:
            geometry = spec.params["paned"]
            self._panes_per_every = geometry["every"]
            self._panes_per_window = geometry["window"]
            # Unshipped per-pane increments: each pane's partial crosses
            # the wire once, at the first flush after rows touched it;
            # the final holds the window's panes.
            self._unshipped_panes = {}  # pane -> {gvals: [states]}

    def push_batch(self, batch, port=0):
        """Evaluate group keys and aggregate inputs as whole columns,
        then fold each group's run of values in one pass.

        Rows are bucketed by group key first (preserving arrival order
        within each group), so per-group accumulation order -- and thus
        every state, float sums included -- does not depend on how the
        input was chunked. State-store lookups happen once per group
        per batch. A global aggregate (no GROUP BY) has one group, so
        its columns fold straight into that group's states.
        """
        n = len(batch)
        if n == 0:
            return
        store = self._store(batch)
        group_cols = [fn(batch) for fn in self._batch_group_fns]
        arg_cols = [fn(batch) for fn in self._batch_arg_fns]
        if not group_cols:
            groups = (((), arg_cols),)
        else:
            if len(group_cols) == 1:
                keys = [(g,) for g in group_cols[0]]
            else:
                keys = list(zip(*group_cols))
            buckets = {}
            for i, gvals in enumerate(keys):
                bucket = buckets.get(gvals)
                if bucket is None:
                    bucket = buckets[gvals] = []
                bucket.append(i)
            groups = (
                (gvals, [[col[j] for j in indices] for col in arg_cols])
                for gvals, indices in buckets.items()
            )
        specs = self._agg_specs
        for gvals, cols in groups:
            states = store.get(gvals)
            if states is None:
                states = store[gvals] = [a.agg.init() for a in specs]
            for i, spec in enumerate(specs):
                states[i] = spec.agg.add_many(states[i], cols[i])
        self._note(n)

    def _store(self, batch):
        """Where ``batch`` folds: its pane's or the active epoch's."""
        if self._paned:
            return self._unshipped_panes.setdefault(batch.pane, {})
        return self._epochs.state(self._active_epoch())

    def _pairs(self, store):
        """The ``(gvals, states)`` pairs a flush ships."""
        return store.items()

    def flush(self):
        if not self._paned:
            # Emit-and-clear: post-flush stragglers die with their epoch,
            # exactly as they did inside a torn-down execution.
            held = self._epochs.seal(self._active_epoch())
            _emit_states(self, self._pairs(held or {}))
            return
        lo, hi = window_pane_range(
            self._active_epoch(), self._panes_per_every,
            self._panes_per_window,
        )
        # Ship each pending pane's increment under its pane tag; panes
        # below the window can never be read again (their last covering
        # epoch already flushed) and are dropped.
        for pane in sorted(self._unshipped_panes):
            if pane >= hi:
                continue  # still open: a later epoch closes it
            store = self._unshipped_panes.pop(pane)
            if pane < lo:
                continue
            _emit_states(self, self._pairs(store), pane)

    def seal_epoch(self, k):
        # Unpaned: whatever survived the flush dies with its epoch.
        # Paned: unshipped pane increments outlive epochs by design; a
        # flush ships or drops them as the window advances.
        self._epochs.seal(k)

    def teardown(self):
        self._epochs.clear()
        if self._paned:
            self._unshipped_panes = {}


@register_operator("family_partial")
class FamilyPartial(GroupByPartial):
    """A predicate family's members' partials at once: each row folds
    once, into its interval of ``ctx.spine.layout``, held as ``{layout:
    {gvals: {interval: [states]}}}`` per pane or epoch. A flush ships
    one ``FamilyAggregate`` state per group. Params: those of
    ``groupby_partial``, the threshold's ``column`` and ``op``, and the
    ``family`` aggregate."""

    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        self._value_fn = ColumnRef(spec.params["column"]).compile_batch(
            spec.params["schema"])
        self._family = spec.params["family"]

    def push_batch(self, batch, port=0):
        self.fold(batch, self.ctx.spine.layout)

    def fold(self, batch, layout):
        """Fold ``batch`` for ``layout``'s members. A row no member reads
        (NULL, NaN, outside ``layout.span``) folds nowhere."""
        if layout is None or not len(batch):
            return
        bisect, cuts = layout.bisect, layout.cuts
        lo, hi = layout.span
        group_cols = [fn(batch) for fn in self._batch_group_fns]
        keys = list(zip(*group_cols)) if group_cols else None
        buckets = {}  # (gvals, interval) -> row positions, in order
        for i, v in enumerate(self._value_fn(batch)):
            if v is not None and v == v:
                at = bisect(cuts, v)
                if lo <= at <= hi:
                    buckets.setdefault((keys[i] if keys else (), at),
                                       []).append(i)
        if not buckets:
            return
        arg_cols = [fn(batch) for fn in self._batch_arg_fns]
        segment = self._store(batch).setdefault(layout, {})
        specs = self._agg_specs
        for (gvals, at), rows in buckets.items():
            states = segment.setdefault(gvals, {}).setdefault(
                at, [a.agg.init() for a in specs])
            for i, spec in enumerate(specs):
                states[i] = spec.agg.add_many(
                    states[i], [arg_cols[i][j] for j in rows])
            self._note(len(rows))

    def _pairs(self, store):
        """Each group's family state; a member that left ships nothing."""
        members, family = self.ctx.spine.subscribers, self._family
        merged = {}
        for layout, segment in store.items():
            for gvals, intervals in segment.items():
                spread = {key: states for key, states
                          in layout.spread(intervals, family)
                          if key in members}
                merged[gvals] = family.merge(merged.get(gvals), spread)
        return [(gvals, (held,)) for gvals, held in merged.items() if held]


@register_operator("groupby_final")
class GroupByFinal(Operator):
    """Merges partial states at each group's owner.

    After its first flush the operator keeps its state and *re-emits*
    the updated full group set when stragglers arrive (partials delayed
    by failed hops) -- PIER's streaming refinement. The downstream
    result operator runs in replace mode, so the query site keeps each
    node's latest contribution rather than double-counting.

    State is keyed per epoch: under an overlapping-epoch standing plan
    a late partial tagged with the previous epoch merges into (and
    refines) that epoch's groups while the current epoch accumulates
    beside it.

    *Paned* finals (distributed sliding windows) hold the window's pane
    partials instead: arriving increments -- batches whose pane the
    pane-tagged exchange's delivery put back -- merge into their pane's
    store, and each epoch's flush re-merges the window's pane partials
    (:class:`PaneWindow`): O(window panes) merges per group and epoch,
    whatever the window's row count. A late increment triggers a
    refinement reflush of every flushed, still-open epoch whose window
    covers its pane.
    """

    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        self._agg_specs = spec.params["agg_specs"]
        self._finalize = spec.params.get("finalize", False)
        self._note = ctx.engine.note_rows_merged
        # epoch -> {"groups", "flushed", "timer"}; sealing an epoch
        # cancels its pending refinement reflush so sealed groups can
        # never leak into a later epoch's result stream.
        self._epochs = EpochStateRing(
            lambda: {"groups": {}, "flushed": False, "timer": None},
            on_seal=self._cancel_reflush,
        )
        self._paned = bool(spec.params.get("paned"))
        if self._paned:
            geometry = spec.params["paned"]
            self._panes_per_every = geometry["every"]
            self._panes_per_window = geometry["window"]
            # Older still-open epochs of the ring may reflush after the
            # newest advanced the window: retain their panes.
            overlap = ctx.plan.epoch_overlap
            self._window = PaneWindow(
                self._agg_specs,
                retain_panes=(overlap - 1) * self._panes_per_every,
            )

    def _cancel_reflush(self, entry):
        if entry["timer"] is not None:
            entry["timer"].cancel()
            entry["timer"] = None

    def _window_range(self, epoch):
        return window_pane_range(
            epoch, self._panes_per_every, self._panes_per_window
        )

    def push_batch(self, batch, port=0):
        rows = batch.rows()
        if not rows:
            return
        epoch = self._active_epoch()
        self._note(len(rows))
        specs = self._agg_specs
        if self._paned:
            pane = batch.pane
            for gvals, states in rows:
                merge_into(self._window.entry(pane, tuple(gvals)), specs,
                           states)
            # Streaming refinement: every flushed, still-open epoch
            # whose window covers this pane now has a stale answer.
            for e, entry in self._epochs.items():
                if not entry["flushed"] or entry["timer"] is not None:
                    continue
                lo, hi = self._window_range(e)
                if lo <= pane < hi:
                    entry["timer"] = self.ctx.dht.set_timer(
                        0.4, self._reflush, e
                    )
            return
        entry = self._epochs.state(epoch)
        groups = entry["groups"]
        for gvals, states in rows:
            held = groups.get(gvals)
            if held is None:
                groups[gvals] = list(states)
            else:
                merge_into(held, specs, states)
        if entry["flushed"] and entry["timer"] is None:
            entry["timer"] = self.ctx.dht.set_timer(
                0.4, self._reflush, epoch
            )

    def _reflush(self, epoch):
        self._run_in_epoch(epoch, self.flush)

    def flush(self):
        entry = self._epochs.state(self._active_epoch())
        self._cancel_reflush(entry)
        entry["flushed"] = True
        self.reset_batch()
        if self._paned:
            lo, hi = self._window_range(self._active_epoch())
            pairs = self._window.assemble(lo, hi)
        else:
            pairs = entry["groups"].items()
        # Owners ship mergeable *states*, not finalized values: during
        # ring healing two nodes can both act as a group's owner, and
        # only the query site's final, which sees both, finalizes.
        if not self._finalize:
            _emit_states(self, pairs)
            return
        specs = self._agg_specs
        rows = [tuple(gvals) + tuple(s.agg.final(x) for s, x in zip(specs, states))
                for gvals, states in pairs]
        if rows:
            self.emit_batch(RowBatch(rows=rows))

    def seal_epoch(self, k):
        # The pane store outlives epochs by design (later windows reuse
        # the panes); only the per-epoch flush bookkeeping is sealed.
        self._epochs.seal(k)

    def teardown(self):
        self._epochs.clear()
        if self._paned:
            self._window.clear()
