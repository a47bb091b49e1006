"""Scan: emit one node's fragment of a relation.

Dissemination turns one logical scan into N local scans -- every node
that receives the plan scans what *it* has:

* ``local`` tables: the node's private rows,
* ``dht`` tables: the items this node stores for the table's namespace
  (PIER's ``lscan`` access path),
* ``stream`` tables: the rows in this epoch's window
  ``(t0 - window, t0]``.

A scan the planner pinned to one partition key (``params["key"]``,
only in a plan that runs at its query site) is the other DHT access
path: it issues one ``get`` for that key instead and emits the reply
as one wave.

Under a disposable per-epoch execution the scan runs once, at start.
Under a :class:`~repro.core.dataflow.StandingExecution` it emits once
per epoch:

* stream tables: the scan follows the fragment's log
  (:class:`~repro.db.window.TimeWindow`) with a *cursor*, the sequence
  number of the oldest row a later window can still cover: each
  ``open_epoch`` bisects the log from there for the new window, emits
  that slice and moves the cursor on, so the scan holds no row and the
  fragment calls nobody on append. ``rows_scanned`` is charged one
  examination per row appended since the last read (from sequence
  numbers; the tail at teardown) plus one per row from the cursor on at
  every epoch. Queries share a scan by sharing the execution it belongs
  to (a spine, or the scan stage under many spines -- see
  :mod:`repro.core.sharing`); a stage-fed member's scan is *passive*
  (``ctx.prefix_fed``): the stage hands its waves to the member
  (``StandingExecution.deliver_scan``), which the scan emits as they
  are, and a member that starts while its stage runs is seeded from the
  stage scan's log (:meth:`Scan.emitted_for`);
* dht tables and local tables: the node's part of the table is
  whatever its store or fragment holds now (soft state ages out on its
  own), so every epoch simply re-reads it -- a fresh ``lscan`` for a
  DHT table, charged ``len(items)`` exactly as a one-shot scan is.

When the planner marked the plan *paned* (``WINDOW > EVERY`` above a
pane-aware aggregate), the standing stream scan goes one step further:
instead of re-emitting the window overlap every epoch, it buckets its
delta into panes of width ``plan.pane``, emits each bucket as one
batch tagged with its pane (``RowBatch.pane``), and so emits every row
exactly once. The pane-aware operator downstream keeps the pane
partials and assembles each epoch's window from them, so nothing in
the overlap is ever re-scanned *or* re-aggregated.

Params: ``table`` (catalog name), ``key`` (get access path). The
optional ``alias`` only matters
at planning time (column qualification); at runtime rows are positional.
``paned`` carries the pane geometry (``{"width", "every", "window"}``,
width in seconds, the others in panes) and switches on the pane-emission
mode described above.
"""

import zlib

from repro.core.batch import RowBatch
from repro.core.dataflow import Operator
from repro.core.operators import register_operator
from repro.db.window import pane_index, window_pane_range


def _sample_keep(row, threshold):
    """Deterministic Bernoulli sampling by row content.

    Admission-degraded plans (``params["sample"]``) keep a row iff its
    content hash falls under the rate threshold. CRC32 of the repr is
    stable across nodes and processes (unlike ``hash()`` under hash
    randomization), so every replica of a row makes the same keep/drop
    decision and joins stay consistent across fragments.
    """
    return zlib.crc32(repr(row).encode("utf-8")) % 1000000 < threshold


@register_operator("scan")
class Scan(Operator):
    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        self._standing = ctx.plan.standing
        self._paned = bool(spec.params.get("paned"))
        # Admission-control sampling: emit only a deterministic
        # hash-sampled fraction of scanned rows. Every row is still
        # *examined* (and charged to rows_scanned) -- sampling sheds
        # downstream exchange and fold load, not scan effort -- which
        # is exactly how the cost bounder (core/admission.py) models it.
        sample = spec.params.get("sample")
        self._sample_threshold = (
            int(float(sample) * 1000000) if sample is not None else None
        )
        # Prefix-fed: a shared scan stage feeds this execution via
        # StandingExecution.deliver_scan; this scan goes passive (no
        # cursor, no per-epoch emission). Examinations are charged once
        # at the stage.
        self._prefix_fed = ctx.prefix_fed
        self._table_def = None
        # Stream mode: the fragment's log, the oldest sequence number a
        # later epoch may still read, the log's end when last charged.
        self._log = None
        self._cursor = 0
        self._seen = 0
        # Unpaned: (epoch, first, end) sequence numbers of the last wave.
        self._wave = None
        self._awaiting = False  # get mode: the reply is still to come
        if self._paned:
            geometry = spec.params["paned"]  # set by the planner
            self._pane = geometry["width"]
            self._panes_per_every = geometry["every"]
            self._panes_per_window = geometry["window"]
            # Pane indices are aligned to the query's submission time,
            # recovered from the epoch the execution joined at.
            self._pane_origin = ctx.t0 - ctx.epoch * ctx.plan.every

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------
    def _count(self, n):
        self.ctx.engine.note_rows_scanned(n)

    def _batch(self, rows, pane=None):
        """The sampled part of ``rows`` (taken over) as one RowBatch of
        ``pane``, or None when nothing is left."""
        threshold = self._sample_threshold
        if threshold is not None and rows:
            rows = [r for r in rows if _sample_keep(r, threshold)]
        if rows:
            return RowBatch(rows=rows, schema=self._table_def.schema,
                            pane=pane)
        return None

    def _emit_rows(self, rows, pane=None):
        """Emit one scan wave (or one pane's bucket) as a single
        RowBatch."""
        batch = self._batch(rows, pane)
        if batch is not None:
            self.emit_batch(batch)

    def _window(self):
        window = self.ctx.plan.window
        if window is None:
            window = self._table_def.window
        return window

    def start(self):
        table_name = self.spec.params["table"]
        self._table_def = self.ctx.engine.catalog.lookup(table_name)
        source = self._table_def.source
        if self._prefix_fed:
            return  # passive: the prefix stage hands us its waves
        if "key" in self.spec.params:
            self._awaiting = True
            self.ctx.dht.get(table_name, self.spec.params["key"],
                             self._fetched)
            return
        if source == "stream":
            if not self._standing:
                # Charged as a pass over everything the horizon
                # retains, though two bisects select the window.
                fragment = self.ctx.fragment(table_name)
                self._count(len(fragment))
                self._emit_rows(fragment.scan_window(
                    self.ctx.t0 - self._window(), self.ctx.t0))
                return
            # Start at the oldest retained row, charged once as the
            # seed. Sharing happens a level up: a spine or a stage is
            # one execution, hence one scan, however many it serves.
            self._log = log = self.ctx.fragment(table_name)
            self._cursor = log.first_live()
            self._seen = log.end
            self._count(self._seen - self._cursor)
        self._emit_epoch(self.ctx.epoch, self.ctx.t0)

    def _fetched(self, values):
        """The key's ``get`` reply: its rows are all this scan will
        ever emit."""
        if not self._awaiting:
            return  # torn down: the query closed first
        self._awaiting = False
        rows = [tuple(value) for _iid, value in values]
        self._count(len(rows))
        self._emit_rows(rows)

    def open_epoch(self, k, t_k):
        """Emit epoch ``k``'s wave (standing mode only)."""
        if not self._standing or self._prefix_fed:
            return
        self._emit_epoch(k, t_k)

    def _emit_epoch(self, k, t_k):
        source = self._table_def.source
        if source == "dht":
            self._emit_dht_epoch()
        elif source != "stream":
            self._emit_local()  # rows never age: no delta to exploit
        elif self._paned:
            self._emit_paned_epoch(k)
        else:
            self._emit_stream_epoch(k, t_k)

    def _emit_local(self):
        rows = list(self.ctx.fragment(self.spec.params["table"]).scan())
        self._count(len(rows))
        self._emit_rows(rows)

    def _read_from(self):
        """Charge one examination per row appended since the last
        read; returns where this read starts and the log's end."""
        log = self._log
        end = log.end
        self._count(end - self._seen)
        self._seen = end
        return max(self._cursor, log.first_live()), end

    def _emit_stream_epoch(self, k, t_k):
        window = self._window()
        every = self.ctx.plan.every or window
        log = self._log
        start, end = self._read_from()
        self._count(end - start)
        lo = max(start, log.seq_after(t_k - window))
        hi = max(start, log.seq_after(t_k))
        self._wave = (k, lo, hi)
        # Rows at or before the *next* window's low edge can never be
        # scanned again; keep the overlap (window > every) for re-emission.
        self._cursor = max(start, log.seq_after(t_k + every - window))
        self._emit_rows(log.rows_in(lo, hi))

    def _emit_paned_epoch(self, k):
        """Bucket the delta by pane and emit each row exactly once.

        Panes up to (but excluding) ``k * panes_per_every`` close with
        epoch ``k``'s window; rows older than the window (panes below
        ``lo``) can never be scanned again and are passed over. A row
        can land in an already-emitted pane that is *still inside the
        window* -- an append stamped exactly on the previous boundary
        whose event fired just after that boundary's emission wave --
        and is emitted into its true pane now: the pane's partials stay
        live downstream for every window that still covers it, exactly
        as the from-scratch path would keep re-scanning the row. The
        walk stops at the first row of a still-open pane, where the
        cursor waits for the next epoch.
        """
        start, end = self._read_from()
        buckets, examined = self._panes(k, start, end)
        self._count(examined)
        self._cursor = start + examined
        for p in sorted(buckets):
            self._emit_rows(buckets[p], p)

    def _panes(self, k, start, end):
        """Log rows ``[start, end)`` that epoch ``k``'s window covers,
        bucketed by pane, and how many rows the walk examined: it stops
        at the first row of a pane past the window."""
        lo, hi = window_pane_range(
            k, self._panes_per_every, self._panes_per_window
        )
        log = self._log
        origin, width = self._pane_origin, self._pane
        buckets = {}
        examined = 0
        for ts, row in zip(log.stamps_in(start, end), log.rows_in(start, end)):
            p = pane_index(ts, origin, width)
            if p >= hi:
                break
            examined += 1
            if p >= lo:
                buckets.setdefault(p, []).append(row)
        return buckets, examined

    def emitted_for(self, k):
        """What this standing stream scan has already emitted that
        epoch ``k``'s window covers, as RowBatches (one per pane).

        Re-read from the log: a member that starts beside a running
        stage is seeded with them and sees the window a private scan
        would, and nobody keeps a copy. Paned, that is every emitted
        row from epoch ``k``'s low pane on; unpaned, epoch ``k``'s own
        wave once it has gone out -- before that, the wave itself
        carries the whole window. Re-reads charge no ``rows_scanned``.
        """
        log = self._log
        if self._paned:
            buckets, _examined = self._panes(
                k, log.first_live(), self._cursor)
        elif self._wave is not None and self._wave[0] == k:
            _k, lo, hi = self._wave
            buckets = {None: log.rows_in(max(lo, log.first_live()), hi)}
        else:
            return []
        seeds = (self._batch(buckets[p], p) for p in sorted(buckets))
        return [batch for batch in seeds if batch is not None]

    def _emit_dht_epoch(self):
        items = self.ctx.dht.lscan(self.spec.params["table"])
        self._count(len(items))
        self._emit_rows([tuple(item.value) for item in items])

    def teardown(self):
        if self._log is not None:
            self._count(self._log.end - self._seen)  # the unread tail
            self._log = None
        self._awaiting = False
