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
Under a :class:`~repro.core.dataflow.StandingExecution` it *subscribes*
instead of re-scanning:

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
  (``ctx.prefix_fed``): it only relays the waves the stage injects;
* dht tables: a TTL'd ``newData`` subscription (renewed every epoch)
  tracks arriving items by reference; each epoch emits the tracked
  items still live -- identical to a fresh ``lscan`` because renewals
  and re-puts update the shared :class:`StoredItem` in place -- and
  prunes the dead;
* local tables: rows never age, every epoch reads all of them, so the
  scan simply re-reads the fragment (there is no delta to exploit).

When the planner marked the plan *paned* (``WINDOW > EVERY`` above a
pane-aware aggregate), the standing stream scan goes one step further:
instead of re-emitting the window overlap every epoch, it buckets its
delta into panes of width ``plan.pane``, announces each bucket with an
``open_pane`` marker, and emits every row exactly once. The pane-aware
operator downstream keeps the pane partials and assembles each epoch's
window from them, so nothing in the overlap is ever re-scanned *or*
re-aggregated.

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
        self._standing = ctx.standing
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
        # subscription, no per-epoch emission) and only relays injected
        # waves. Examinations are charged once at the stage.
        self._prefix_fed = ctx.prefix_fed
        self._table_def = None
        # Stream mode: the fragment's log, the oldest sequence number a
        # later epoch may still read, the log's end when last charged.
        self._log = None
        self._cursor = 0
        self._seen = 0
        self._tracked = {}  # dht mode: item key -> StoredItem (by ref)
        self._sub_token = None
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

    def _emit_rows(self, rows):
        """Emit one scan wave as a single RowBatch (``rows`` is taken
        over by the batch)."""
        if self._sample_threshold is not None and rows:
            threshold = self._sample_threshold
            rows = [r for r in rows if _sample_keep(r, threshold)]
        if rows:
            self.emit_batch(
                RowBatch(rows=rows, schema=self._table_def.schema)
            )

    def _window(self):
        window = self.spec.params.get("window") or self.ctx.plan.window
        if window is None:
            window = self._table_def.window
        return window

    def start(self):
        table_name = self.spec.params["table"]
        self._table_def = self.ctx.engine.catalog.lookup(table_name)
        source = self._table_def.source
        if self._prefix_fed:
            return  # passive: the prefix stage injects our rows
        if "key" in self.spec.params:
            self._awaiting = True
            self.ctx.dht.get(table_name, self.spec.params["key"],
                             self._fetched)
            return
        if not self._standing:
            if source == "dht":
                items = self.ctx.dht.lscan(table_name)
                self._count(len(items))
                self._emit_rows([tuple(item.value) for item in items])
            elif source == "stream":
                # Charged as a pass over everything the horizon
                # retains, though two bisects select the window.
                fragment = self.ctx.fragment(table_name)
                self._count(len(fragment))
                self._emit_rows(fragment.scan_window(
                    self.ctx.t0 - self._window(), self.ctx.t0))
            else:
                self._emit_local()
            return
        # Standing (subscription) mode.
        if source == "stream":
            # Start at the oldest retained row, charged once as the
            # seed. Sharing happens a level up: a spine or a stage is
            # one execution, hence one scan, however many it serves.
            self._log = log = self.ctx.fragment(table_name)
            self._cursor = log.first_live()
            self._seen = log.end
            self._count(self._seen - self._cursor)
        elif source == "dht":
            self._subscribe_dht(table_name)
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

    def _subscribe_dht(self, table_name):
        """Seed from the store, then hear about every later arrival."""
        self._tracked = {i.key(): i for i in self.ctx.dht.lscan(table_name)}
        self._sub_token = self.ctx.dht.new_data(
            table_name, self._on_new_item, ttl=self._sub_ttl()
        )

    def _sub_ttl(self):
        # Outlive one missed boundary, not a dead query: the next
        # advance renews; a crashed execution lets it age out.
        return 2.0 * (self.ctx.plan.every or 30.0)

    def _on_new_item(self, item):
        self._tracked[item.key()] = item
        self._count(1)

    def open_epoch(self, k, t_k):
        """Emit epoch ``k``'s delta (subscription mode only)."""
        if not self._standing or self._prefix_fed:
            return
        if self._sub_token is not None:
            table_name = self.spec.params["table"]
            if not self.ctx.dht.renew_new_data(
                table_name, self._sub_token, self._sub_ttl()
            ):
                # The subscription aged out (e.g. this node crashed
                # and recovered): re-seed, exactly like a fresh adoption.
                self._subscribe_dht(table_name)
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
            self._emit_stream_epoch(t_k)

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

    def _emit_stream_epoch(self, t_k):
        window = self._window()
        every = self.ctx.plan.every or window
        log = self._log
        start, end = self._read_from()
        self._count(end - start)
        out = log.rows_in(max(start, log.seq_after(t_k - window)),
                          max(start, log.seq_after(t_k)))
        # Rows at or before the *next* window's low edge can never be
        # scanned again; keep the overlap (window > every) for re-emission.
        self._cursor = max(start, log.seq_after(t_k + every - window))
        self._emit_rows(out)

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
        lo, hi = window_pane_range(
            k, self._panes_per_every, self._panes_per_window
        )
        log = self._log
        start, end = self._read_from()
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
        self._count(examined)
        self._cursor = start + examined
        for p in sorted(buckets):
            self.open_pane(p)
            self._emit_rows(buckets[p])

    def inject_batch(self, batch, pane=None):
        """Relay one wave from a shared prefix stage (prefix-fed mode).

        The caller (``StandingExecution.deliver_scan``) has already
        scoped the epoch; rows were examined and charged once at the
        stage, so no ``_count`` here. The pane marker is re-announced
        first so pane-aware consumers bucket the wave correctly. The
        stage hands every member the same batch, emitted as it is:
        batches are read-only, so the first member's transpose is the
        only one. A sampled member filters its own copy.
        """
        if pane is not None:
            self.announce_pane(pane)
        if self._sample_threshold is None:
            self.emit_batch(batch)
        else:
            self._emit_rows(batch.rows())

    def _emit_dht_epoch(self):
        now = self.ctx.clock.now
        dead, out = [], []
        for key, item in self._tracked.items():
            if item.expires_at > now:
                out.append(tuple(item.value))
            else:
                dead.append(key)
        self._count(len(self._tracked))
        for key in dead:
            del self._tracked[key]
        self._emit_rows(out)

    def teardown(self):
        if self._log is not None:
            self._count(self._log.end - self._seen)  # the unread tail
            self._log = None
        if self._sub_token is not None:
            self.ctx.dht.remove_new_data(
                self.spec.params["table"], self._sub_token
            )
            self._sub_token = None
        self._tracked = {}
        self._awaiting = False
