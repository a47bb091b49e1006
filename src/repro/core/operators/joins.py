"""In-network join operators.

PIER's two workhorse joins (VLDB 2003, section 3.4):

* **Symmetric hash join (SHJ)** -- both relations are rehashed on their
  join keys into a query-temporary namespace; at every node an SHJ
  instance builds a hash table per side and probes the opposite one on
  each arrival, so results stream out without blocking. The exchanges
  feeding ports 0/1 did the network work; this operator is local.

* **Fetch-matches (FM)** -- used when one relation is *already*
  published in the DHT partitioned on the join column: probe-side rows
  trigger a ``get`` for their key, so only matching tuples ever cross
  the network. Asynchronous by nature; replies landing after the query
  deadline are dropped by the closed execution, the soft-state way.

Join state is keyed by ``ctx.active_epoch`` (one
:class:`~repro.core.dataflow.EpochStateRing` entry per live epoch):
under an overlapping-epoch standing plan, rows tagged with a previous
epoch keep probing (and building) that epoch's tables while the
current epoch's fill up beside them. Sealing an epoch drops its
tables, exactly as tearing down a rebuilt execution did.

Fetch-matches is additionally *pane-transparent* on paned plans
(``params["paned"]``): a joined row belongs to the pane of the stream
row that probed for it, so the operator records the pane each probe was
pushed under, and re-announces it downstream when the asynchronous
reply releases the joins -- which is what lets a paned aggregate sit
above a stream-probed join. The inner DHT relation is treated as
quasi-static over a window (its rows are TTL'd soft state): a probe
joins against the table as of the epoch its pane first closed, exactly
like the pane partials the aggregate caches.
"""

from repro.core.batch import RowBatch
from repro.core.dataflow import EpochStateRing, Operator
from repro.core.operators import register_operator


@register_operator("shj")
class SymmetricHashJoin(Operator):
    """Pipelined equi-join; port 0 is the left input, port 1 the right.

    Params: ``left_schema``, ``right_schema`` (qualified), ``left_keys``
    and ``right_keys`` (expression lists of equal length), optional
    ``residual`` predicate over the concatenated schema.
    """

    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        left_schema = spec.params["left_schema"]
        right_schema = spec.params["right_schema"]
        self._left_batch_key = batch_key_fn(
            spec.params["left_keys"], left_schema)
        self._right_batch_key = batch_key_fn(
            spec.params["right_keys"], right_schema)
        # epoch -> ({}, {}): key -> [rows], by port
        self._epochs = EpochStateRing(lambda: ({}, {}))
        residual = spec.params.get("residual")
        if residual is not None:
            out_schema = left_schema.concat(right_schema)
            self._batch_residual = residual.compile_batch(out_schema)
        else:
            self._batch_residual = None

    def push_batch(self, batch, port=0):
        """Build+probe: evaluate the join keys as whole columns, then
        run one combined build/probe pass.

        A batch arrives on a single port, so the opposite side's table
        is constant for the batch's duration and per-row work shrinks
        to one build append plus one probe lookup over already-computed
        keys. The pass walks rows in batch order and matches in table
        insertion order, and everything one call joins -- a single
        arrival fanning out to k matches included -- leaves as one
        batch.
        """
        n = len(batch)
        if n == 0:
            return
        tables = self._epochs.state(self._active_epoch())
        keys = (self._left_batch_key(batch) if port == 0
                else self._right_batch_key(batch))
        mine, other = tables[port], tables[1 - port]
        left = port == 0
        joined = []
        for row, key in zip(batch.rows(), keys):
            mine.setdefault(key, []).append(row)
            for match in other.get(key, ()):
                # Column order is left-then-right regardless of side.
                joined.append((row + match) if left else (match + row))
        if not joined:
            return
        if self._batch_residual is not None:
            out = RowBatch(rows=joined)
            joined = out.take(self._batch_residual(out)).rows()
            if not joined:
                return
        self.emit_batch(RowBatch(rows=joined))

    def seal_epoch(self, k):
        self._epochs.seal(k)

    def teardown(self):
        self._epochs.clear()


def batch_key_fn(exprs, schema):
    """Compile join key expressions: batch -> list of key tuples."""
    compiled = [e.compile_batch(schema) for e in exprs]
    if len(compiled) == 1:
        fn = compiled[0]
        return lambda batch: [(v,) for v in fn(batch)]
    return lambda batch: list(zip(*(fn(batch) for fn in compiled)))


@register_operator("fetch_matches")
class FetchMatches(Operator):
    """Probe-side join against a DHT-published table.

    Params: ``probe_schema``, ``table`` (dht table name, partitioned on
    the join column), ``table_schema`` (qualified), ``probe_key``
    (expression over the probe schema), optional ``residual`` over the
    concatenated schema, optional ``dedup_keys`` (skip repeat gets for
    a key already fetched -- the recursion path sets this).
    """

    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        probe_schema = spec.params["probe_schema"]
        self._batch_probe_key = spec.params["probe_key"].compile_batch(
            probe_schema)
        self._table = spec.params["table"]
        residual = spec.params.get("residual")
        if residual is not None:
            out_schema = probe_schema.concat(spec.params["table_schema"])
            self._residual = residual.compile(out_schema)
        else:
            self._residual = None
        self._dedup = spec.params.get("dedup_keys", False)
        self._paned = bool(spec.params.get("paned"))
        self._current_pane = None
        # epoch -> {"cache": {...}, "waiting": {...}}
        self._epochs = EpochStateRing(lambda: {"cache": {}, "waiting": {}})

    def open_pane(self, pane):
        # Pane-transparent, not pane-forwarding: emissions are async,
        # so the marker is replayed at join-release time instead of
        # being propagated now.
        if self._paned:
            self._current_pane = pane
        else:
            super().open_pane(pane)

    def push_batch(self, batch, port=0):
        """Evaluate the probe keys as one column, then split the batch
        into cache hits (joined immediately), piggybacks on an
        in-flight fetch, and novel keys -- issuing a single ``get`` per
        distinct novel key. Cache hits release in batch-row order and
        waiting lists grow in batch-row order.
        """
        n = len(batch)
        if n == 0:
            return
        epoch = self._active_epoch()
        entry = self._epochs.state(epoch)
        keys = self._batch_probe_key(batch)
        pane = self._current_pane if self._paned else None
        cache = entry["cache"]
        waiting = entry["waiting"]
        dedup = self._dedup
        novel = []  # distinct keys needing a fetch, in first-seen order
        for row, key in zip(batch.rows(), keys):
            if dedup and key in cache:
                if pane is not None:
                    self.announce_pane(pane)
                self._join(row, cache[key])
                continue
            queue = waiting.get(key)
            if queue is not None:
                queue.append((row, pane))
            else:
                waiting[key] = [(row, pane)]
                novel.append(key)
        for key in novel:
            self.ctx.dht.get(
                self._table, key,
                lambda values, key=key: self._fetched(epoch, key, values),
            )

    def _fetched(self, epoch, key, values):
        # The reply lands asynchronously: re-enter the epoch the probe
        # rows were pushed under so downstream state files the joins
        # correctly. A sealed epoch's entry is gone -- its reply finds
        # no waiting probes and is dropped.
        entry = self._epochs.peek(epoch)
        if entry is None:
            return
        rows = [tuple(v) for _iid, v in values]
        if self._dedup:
            entry["cache"][key] = rows
        waiting = entry["waiting"].pop(key, ())

        def deliver():
            announced = None
            for probe_row, pane in waiting:
                if self._paned and pane is not None and pane != announced:
                    # Joined rows belong to their probe row's pane.
                    self.announce_pane(pane)
                    announced = pane
                self._join(probe_row, rows)

        self._run_in_epoch(epoch, deliver)

    def _join(self, probe_row, table_rows):
        """One probe row against its fetched matches, out as one batch."""
        joined = [probe_row + table_row for table_row in table_rows]
        if self._residual is not None:
            joined = [row for row in joined if self._residual(row)]
        if joined:
            self.emit_batch(RowBatch(rows=joined))

    def seal_epoch(self, k):
        self._epochs.seal(k)

    def teardown(self):
        self._epochs.clear()
