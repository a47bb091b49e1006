"""Group-by aggregation in two network phases.

``partial`` instances run where the data lives: they fold raw rows into
per-group aggregate states and, at their flush deadline, emit compact
``(group_values, states)`` pairs -- these are what the exchange ships
(and what the aggregation tree merges per hop). ``final`` instances run
at each group's DHT owner: they merge arriving partials and emit
finished rows (group columns then aggregate results) at their own
deadline.

A node with zero matching rows emits nothing, so global aggregates
naturally report over the *responding* nodes only -- the semantics
Figure 1 of the paper plots.

Both operators key their held state by ``ctx.active_epoch`` (one
``EpochStateRing`` entry per live epoch), so an overlapping-epoch
standing execution can run every live epoch's aggregation concurrently
through one instance.

*Paned* plans (``params["paned"]``, standing plans with
``WINDOW > EVERY``) go further. Rows arrive bucketed by pane (the scan
sends ``open_pane`` markers) and the partial ships each pane's
**increment** exactly once -- announced downstream with
``announce_pane`` so the pane-tagged exchange stamps it onto the batch.
The *final* holds the window's pane partials at the group's owner and
assembles every epoch's window there (:class:`PaneWindow`). The overlap
therefore never crosses the wire again: per epoch only the panes that
actually grew travel, and the final folds O(changed panes) state rows
instead of every group's full window state from every node.

Params (partial): ``group_exprs``, ``agg_specs``, ``schema``, optional
``paned`` geometry (``{"width", "every", "window"}``). Params (final):
``agg_specs``, optional ``paned``.
"""

from repro.core.batch import RowBatch
from repro.core.dataflow import EpochStateRing, Operator, plan_live_epochs
from repro.core.operators import register_operator
from repro.db.window import window_pane_range


class PaneWindow:
    """Per-pane partial states plus per-epoch window assembly.

    A paned final's pane store: it merges pane *increments* arriving
    over the exchange, and :meth:`assemble` produces an epoch's window
    from its panes:

    * when every aggregate is invertible, one running state per group
      is slid -- ``merge`` the panes entering the window, ``unmerge``
      the panes leaving -- so advancing costs O(panes changed);
    * otherwise the window's live panes are re-merged, still O(panes)
      per epoch, never O(rows).

    Versions detect a pane that grew *after* it was merged into the
    running state (a late increment, such as a boundary-straggler row
    shipped an epoch later): the running state is then stale and is
    rebuilt from the raw panes.

    ``retain_panes`` keeps that many pane ranges behind the newest
    window's low edge: under an overlapping-epoch ring an *older*
    still-open epoch can reflush (streaming refinement) after the
    newest epoch already advanced the window, and its re-assembly --
    served statelessly by re-merging, leaving the running state pinned
    to the newest window -- needs those panes to still exist.
    """

    def __init__(self, agg_specs, retain_panes):
        self._specs = agg_specs
        self._invertible = all(s.agg.invertible for s in agg_specs)
        self._retain = retain_panes
        self._panes = {}  # pane -> {gvals: [states]}
        self._versions = {}  # pane -> fold count
        self._window = {}  # gvals -> running [states] (invertible only)
        self._window_panes = set()
        self._window_refs = {}  # gvals -> live pane count
        self._merged_versions = {}  # pane -> version when merged
        self._hi = None  # newest assembled window's high edge

    def entry(self, pane, gvals):
        """The mutable state list for (pane, group), created on first
        fold; every call bumps the pane's version."""
        self._versions[pane] = self._versions.get(pane, 0) + 1
        store = self._panes.setdefault(pane, {})
        states = store.get(gvals)
        if states is None:
            states = store[gvals] = [s.agg.init() for s in self._specs]
        return states

    def assemble(self, lo, hi):
        """``(gvals, states)`` pairs for the window ``[lo, hi)``."""
        if self._hi is not None and hi < self._hi:
            # An older still-open epoch re-assembling after the newest
            # advanced: serve it statelessly, touch nothing.
            return self._remerge(lo, hi)
        self._hi = hi
        if not self._invertible:
            self._prune(lo)
            return self._remerge(lo, hi)
        if any(self._versions.get(p, 0) != v
               for p, v in self._merged_versions.items()):
            # A merged pane grew after the fact (a late increment): the
            # running state no longer matches the raw panes, so rebuild
            # it from them.
            self._window = {}
            self._window_panes = set()
            self._window_refs = {}
            self._merged_versions = {}
        self._slide(lo, hi)
        self._prune(lo)
        return [(gvals, tuple(states))
                for gvals, states in self._window.items()]

    def _remerge(self, lo, hi):
        merged = {}
        for p in range(lo, hi):
            for gvals, states in self._panes.get(p, {}).items():
                held = merged.get(gvals)
                if held is None:
                    merged[gvals] = list(states)
                else:
                    for i, spec in enumerate(self._specs):
                        held[i] = spec.agg.merge(held[i], states[i])
        return [(gvals, tuple(states)) for gvals, states in merged.items()]

    def _slide(self, lo, hi):
        """Move the running window state to cover panes ``[lo, hi)``.

        Original flushes advance monotonically (epoch k-1's deadline
        precedes epoch k's even when the epochs overlap), so panes only
        ever retire off the old edge and join on the new one.
        """
        for p in sorted(self._window_panes):
            if lo <= p < hi:
                continue
            for gvals, states in self._panes.get(p, {}).items():
                held = self._window[gvals]
                for i, spec in enumerate(self._specs):
                    held[i] = spec.agg.unmerge(held[i], states[i])
                self._window_refs[gvals] -= 1
                if self._window_refs[gvals] == 0:
                    del self._window[gvals]
                    del self._window_refs[gvals]
            self._window_panes.discard(p)
            self._merged_versions.pop(p, None)
        for p in range(lo, hi):
            if p in self._window_panes:
                continue
            self._window_panes.add(p)
            self._merged_versions[p] = self._versions.get(p, 0)
            for gvals, states in self._panes.get(p, {}).items():
                held = self._window.get(gvals)
                if held is None:
                    self._window[gvals] = list(states)
                    self._window_refs[gvals] = 1
                else:
                    for i, spec in enumerate(self._specs):
                        held[i] = spec.agg.merge(held[i], states[i])
                    self._window_refs[gvals] += 1

    def _prune(self, lo):
        """Drop panes no window still to come (or still open) can read."""
        cutoff = lo - self._retain
        self._panes = {
            p: d for p, d in self._panes.items()
            if p >= cutoff or p in self._window_panes
        }
        self._versions = {
            p: v for p, v in self._versions.items() if p in self._panes
        }

    def clear(self):
        self._panes = {}
        self._versions = {}
        self._window = {}
        self._window_panes = set()
        self._window_refs = {}
        self._merged_versions = {}
        self._hi = None


def _emit_states(op, pairs):
    """One flush's ``(gvals, states)`` pairs, out of ``op`` as one batch."""
    rows = [(tuple(gvals), tuple(states)) for gvals, states in pairs]
    if rows:
        op.emit_batch(RowBatch(rows=rows))


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
            self._current_pane = None
            # Unshipped per-pane increments: each pane's partial crosses
            # the wire once, at the first flush after rows touched it;
            # the final holds the window's panes.
            self._unshipped_panes = {}  # pane -> {gvals: [states]}

    def open_pane(self, pane):
        self._current_pane = pane

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
        for gvals, cols in groups:
            states = self._group_states(gvals)
            for i, spec in enumerate(self._agg_specs):
                states[i] = spec.agg.add_many(states[i], cols[i])
        self._note(n)

    def _group_states(self, gvals):
        """The mutable state list for one group under the current mode
        (unshipped pane / epoch ring)."""
        if self._paned:
            store = self._unshipped_panes.setdefault(self._current_pane, {})
        else:
            store = self._epochs.state(self._active_epoch())
        states = store.get(gvals)
        if states is None:
            states = store[gvals] = [a.agg.init() for a in self._agg_specs]
        return states

    def flush(self):
        if not self._paned:
            # Emit-and-clear: post-flush stragglers die with their epoch,
            # exactly as they did inside a torn-down execution.
            held = self._epochs.seal(self._active_epoch())
            _emit_states(self, (held or {}).items())
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
            self.announce_pane(pane)
            _emit_states(self, store.items())

    def seal_epoch(self, k):
        # Unpaned: whatever survived the flush dies with its epoch.
        # Paned: unshipped pane increments outlive epochs by design; a
        # flush ships or drops them as the window advances.
        self._epochs.seal(k)

    def teardown(self):
        self._epochs.clear()
        if self._paned:
            self._unshipped_panes = {}


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
    partials instead: arriving increments -- announced by the
    pane-tagged exchange's delivery -- merge into their pane's store,
    and each epoch's flush assembles the window from pane partials
    (:class:`PaneWindow`), so per-epoch owner work is O(panes changed)
    rather than O(groups x nodes). A late increment triggers a
    refinement reflush of every flushed, still-open epoch whose window
    covers its pane.
    """

    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        self._agg_specs = spec.params["agg_specs"]
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
            self._current_pane = None
            # Older still-open epochs of the ring may reflush after the
            # newest advanced the window: retain their panes.
            overlap = plan_live_epochs(ctx.plan)
            self._window = PaneWindow(
                self._agg_specs,
                retain_panes=(overlap - 1) * self._panes_per_every,
            )

    def _cancel_reflush(self, entry):
        if entry["timer"] is not None:
            self.ctx.dht.cancel_timer(entry["timer"])
            entry["timer"] = None

    def open_pane(self, pane):
        self._current_pane = pane

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
            pane = self._current_pane
            if pane is None:
                # Untagged arrival (defensive): file it under the
                # epoch's newest pane so it is never silently dropped.
                pane = self._window_range(epoch)[1] - 1
            for gvals, states in rows:
                held = self._window.entry(pane, tuple(gvals))
                for i, spec in enumerate(specs):
                    held[i] = spec.agg.merge(held[i], states[i])
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
                for i, spec in enumerate(specs):
                    held[i] = spec.agg.merge(held[i], states[i])
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
        # Ship mergeable *states*, not finalized values: during ring
        # healing two nodes can both act as a group's owner, and the
        # query site can only reconcile them if states stay algebraic.
        _emit_states(self, pairs)

    def seal_epoch(self, k):
        # The pane store outlives epochs by design (later windows reuse
        # the panes); only the per-epoch flush bookkeeping is sealed.
        self._epochs.seal(k)

    def teardown(self):
        self._epochs.clear()
        if self._paned:
            self._window.clear()
