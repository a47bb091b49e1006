"""Small operators: distinct, the stage demux, and result return.

``distinct`` is the linchpin of recursive queries: DHT-partitioned (by
an exchange keyed on the whole row), it emits only never-seen rows, so
a cyclic plan reaches a fixpoint when no new rows appear anywhere --
which the engine reports to the query site as quiescence.

``result`` is the query-site boundary: rows are batched briefly and
sent directly (not via DHT routing) to the origin node, exactly how
PIER returns answers.

Stateful operators here keep their per-``ctx.active_epoch`` state in an
:class:`~repro.core.dataflow.EpochStateRing`, so an overlapping-epoch
standing execution keeps up to N epochs' state apart through one
instance.
"""

from repro.core.batch import RowBatch
from repro.core.dataflow import EpochStateRing, Operator
from repro.core.operators import register_operator
from repro.db.window import window_pane_range


@register_operator("distinct")
class Distinct(Operator):
    """Emit each distinct row once, immediately on first arrival.

    Params: ``report_progress`` -- when true (recursive plans), novel
    row counts feed the engine's quiescence reports.
    """

    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        self._seen = EpochStateRing(set)  # epoch -> set of rows
        self._report = spec.params.get("report_progress", False)

    def push_batch(self, batch, port=0):
        """One membership pass, one batched emission.

        The novel rows leave in first-occurrence order as a single
        RowBatch and the progress note aggregates the whole wave.
        """
        seen = self._seen.state(self._active_epoch())
        seen_add = seen.add
        novel = []
        append = novel.append
        for row in batch.rows():
            if row not in seen:
                seen_add(row)
                append(row)
        if not novel:
            return
        if self._report:
            self.ctx.engine.note_progress(
                self.ctx.query_id, self.ctx.epoch, len(novel)
            )
        self.emit_batch(RowBatch(rows=novel))

    def seal_epoch(self, k):
        self._seen.seal(k)

    def teardown(self):
        self._seen.clear()


@register_operator("demux")
class Demux(Operator):
    """Fan a shared scan stage's waves into its member executions.

    The stage plan is scan -> demux; ``ctx.stage`` is the owning
    :class:`~repro.core.sharing.StageRecord`, whose ``subscribers`` are
    the member spines themselves. Stage and members tick on one grid,
    so every wave of epoch ``k`` goes to each member advancing with the
    grid as *its* epoch ``k`` via ``StandingExecution.deliver_scan`` --
    which needs no guards, because the engine advances the members
    before the stage at a boundary: whoever is ``on_grid`` has already
    opened ``k`` (one still waiting for its first epoch is not on the
    grid). Pane markers from the stage scan ride along so pane-aware
    tails bucket waves exactly as a private scan would announce them.

    A wave is one batch: the stage scan's own :class:`RowBatch` goes to
    every member as it is, read-only, so its columns are built once
    (by the first member's predicate) and every later member's filter
    and fold read them in place.

    Paned stages also retain each emitted pane's rows (pruned below the
    newest window) so a member that joins an already-running stage can
    be backfilled, at once or at the boundary where it first runs: the
    retained panes its window still covers are injected once, making
    its first window identical to a private twin's -- exact parity
    from the first reported epoch onward. Each retained pane becomes
    one batch, shared by every joiner until the pane grows or is
    pruned.
    """

    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        geometry = spec.params.get("paned")
        self._paned = bool(geometry)
        if self._paned:
            self._panes_per_every = geometry["every"]
            self._panes_per_window = geometry["window"]
        self._pane = None  # current pane marker from the stage scan
        self._store = {}  # pane -> [rows] retained for joiner backfill
        self._backfill = {}  # pane -> RowBatch of its rows, for joiners

    def open_pane(self, pane):
        self._pane = pane  # marker consumed here, not propagated

    def push_batch(self, batch, port=0):
        if not len(batch):
            return
        k = self._active_epoch()
        pane = self._pane if self._paned else None
        if pane is not None:
            self._store.setdefault(pane, []).extend(batch.rows())
            self._backfill.pop(pane, None)
        for member in self.ctx.stage.members():
            if member.on_grid:
                member.execution.deliver_scan(batch, k, pane)

    def backfill(self, member, k):
        """Inject the retained panes into a (re)joining member as its
        epoch ``k``. Unpaned stages retain nothing -- their next
        boundary re-emits the full window anyway."""
        member.needs_backfill = False
        for p in sorted(self._store):
            batch = self._backfill.get(p)
            if batch is None:
                batch = self._backfill[p] = RowBatch(rows=list(self._store[p]))
            member.execution.deliver_scan(batch, k, p)

    def open_epoch(self, k, t_k):
        if not self._paned:
            return
        lo, _hi = window_pane_range(
            k, self._panes_per_every, self._panes_per_window
        )
        for p in [p for p in self._store if p < lo]:
            del self._store[p]
            self._backfill.pop(p, None)
        # What is left was emitted at stage epochs < k and epoch k's
        # window still covers it: [lo, hi - panes_per_every). The top
        # panes_per_every panes are epoch k's own wave, which is not
        # in the store yet -- it fans normally right after this open
        # (sources open last).
        for member in self.ctx.stage.members():
            if member.needs_backfill and member.on_grid:
                self.backfill(member, k)

    def teardown(self):
        self._store = {}
        self._backfill = {}


@register_operator("result")
class ResultReturn(Operator):
    """Ship rows to the query site, batched to save messages.

    Two modes:

    * append (default): rows buffer for ``batch_delay`` (0.25 s) and
      each message carries the increment -- right for streamed selects
      and recursion, where every row is final.
    * replace (``params["replace"]``, aggregate plans): the upstream
      final operators re-emit their *full* state when stragglers
      refine it; each message carries this node's complete current
      contribution and the query site keeps only the latest one.

    Batches are keyed by the epoch that produced their rows, and every
    message carries that epoch so the query site's per-epoch collection
    buckets stay correct even when two epochs are in flight at once.
    """

    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        self._replace = spec.params.get("replace", False)
        self._batches = EpochStateRing(list)  # epoch -> [rows]
        self._timer = None
        self._delay = spec.params.get("batch_delay", 0.25)

    def push_batch(self, batch, port=0):
        if len(batch) == 0:
            return
        self._batches.state(self._active_epoch()).extend(batch.rows())
        if self._timer is None:
            self._timer = self.ctx.dht.set_timer(self._delay, self._send)

    def reset_batch(self):
        if self._replace:
            self._batches.seal(self._active_epoch())

    def _send(self):
        self._timer = None
        for epoch in self._batches.epochs():
            self._send_epoch(epoch)

    def _send_epoch(self, epoch):
        rows = self._batches.peek(epoch)
        if not rows:
            return
        if not self._replace:
            self._batches.seal(epoch)
        # One target (the query's own site) for private executions; a
        # spine fans the same rows to every subscriber whose window
        # this epoch answers, each under its own qid and epoch number.
        # Each message gets its own list: replace-mode keeps the batch
        # for refinement re-sends, and receivers must never alias it.
        for qid, origin, their_epoch in self.ctx.result_targets(epoch):
            self.ctx.dht.send_direct(origin, {
                "op": "qres",
                "qid": qid,
                "epoch": their_epoch,
                "node": self.ctx.engine.address,
                "rows": list(rows),
                "replace": self._replace,
            })

    def flush(self):
        if self._timer is not None:
            self.ctx.dht.cancel_timer(self._timer)
            self._timer = None
        self._send_epoch(self._active_epoch())

    def seal_epoch(self, k):
        # Last call for the retiring epoch's rows: ship, then forget.
        self._send_epoch(k)
        self._batches.seal(k)

    def teardown(self):
        if self._timer is not None:
            self.ctx.dht.cancel_timer(self._timer)
            self._timer = None
        self._send()
