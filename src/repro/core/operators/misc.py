"""Small operators: distinct, the stage demux, and result return.

``distinct`` is the linchpin of recursive queries: DHT-partitioned (by
an exchange keyed on the whole row), it emits only never-seen rows, so
a cyclic plan reaches a fixpoint when no new rows appear anywhere --
which the engine reports to the query site as quiescence.

``result`` is the query-site boundary: rows are batched briefly and
sent directly (not via DHT routing) to the origin node, exactly how
PIER returns answers (a predicate family's, split per member).

Stateful operators here keep their per-``ctx.active_epoch`` state in an
:class:`~repro.core.dataflow.EpochStateRing`, so an overlapping-epoch
standing execution keeps up to N epochs' state apart through one
instance.
"""

from repro.core.batch import RowBatch
from repro.core.dataflow import EpochStateRing, Operator
from repro.core.operators import register_operator

# How long append-mode result rows buffer before one message ships them.
RESULT_BATCH_DELAY = 0.25


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
    grid).

    A wave is one batch: the stage scan's own :class:`RowBatch`, pane
    and all, goes to every member as it is, read-only, so its columns
    are built once (by the first member's predicate) and every later
    member's filter and fold read them in place.

    The demux keeps no rows: a member that joins a running stage is
    seeded from the stage scan's log
    (:meth:`~repro.core.sharing.StageRecord.seed`).
    """

    def push_batch(self, batch, port=0):
        if not len(batch):
            return
        k = self._active_epoch()
        for member in self.ctx.stage.members():
            if member.on_grid:
                member.execution.deliver_scan(batch, k)


@register_operator("result")
class ResultReturn(Operator):
    """Ship rows to the query site, batched to save messages.

    Two modes:

    * append (default): rows buffer for ``RESULT_BATCH_DELAY`` and
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
        self._family = spec.params.get("family", False)
        self._batches = EpochStateRing(list)  # epoch -> [rows]
        self._timer = None

    def push_batch(self, batch, port=0):
        if len(batch) == 0:
            return
        self._batches.state(self._active_epoch()).extend(batch.rows())
        if self._timer is None:
            self._timer = self.ctx.dht.set_timer(
                RESULT_BATCH_DELAY, self._send)

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
        if self._family:
            self._send_parts(epoch, rows)
            return
        # One target (the query's own site) for private executions; a
        # spine fans the same rows to every subscriber whose window
        # this epoch answers, each under its own qid and epoch number.
        # Each message gets its own list: replace-mode keeps the batch
        # for refinement re-sends, and receivers must never alias it.
        for qid, origin, their_epoch in self.ctx.result_targets(epoch):
            self.ctx.send_to_origin({
                "op": "qres",
                "qid": qid,
                "epoch": their_epoch,
                "node": self.ctx.engine.address,
                "rows": list(rows),
                "replace": self._replace,
            }, origin)

    def _send_parts(self, epoch, rows):
        """A predicate family's answer: each subscriber gets its own
        key's rows (:class:`~repro.core.aggregates.FamilyAggregate`),
        none when no group has its key. All parts bound for one site
        ride one ``qparts`` message; a lone part is a plain ``qres``."""
        by_origin = {}
        for qid, origin, their_epoch in self.ctx.result_targets(epoch):
            part = [(gvals, states[qid]) for gvals, (states,) in rows
                    if qid in states]
            if part:
                by_origin.setdefault(origin, []).append(
                    (qid, their_epoch, part))
        for origin, parts in by_origin.items():
            if len(parts) > 1:
                payload = {"op": "qparts", "parts": parts}
            else:
                ((qid, their_epoch, part),) = parts
                payload = {"op": "qres", "qid": qid, "epoch": their_epoch,
                           "rows": part}
            payload.update(node=self.ctx.engine.address,
                           replace=self._replace)
            self.ctx.send_to_origin(payload, origin)

    def flush(self):
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._send_epoch(self._active_epoch())

    def seal_epoch(self, k):
        # Last call for the retiring epoch's rows: ship, then forget.
        self._send_epoch(k)
        self._batches.seal(k)

    def teardown(self):
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._send()
