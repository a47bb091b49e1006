"""Exchange: the operator that moves rows between nodes.

Everything networked in a PIER plan funnels through exchanges, in one
of two modes:

* ``rehash`` -- classic parallel-DB repartitioning, by DHT ``route``:
  a row goes to whichever node owns ``hash(edge_namespace, key)``.
  Joins use it for both inputs; grouped aggregation uses it to bring
  each group's partials to one owner.
* ``tree`` -- rehash plus an *upcall* at every routing hop: partial
  aggregates heading for the same owner meet mid-route and are merged
  by :mod:`repro.core.aggregation_tree`, so the wire carries combined
  states instead of per-node partials. This is the paper's "multihop,
  in-network aggregation".

Key specs (``params["key"]``):

* ``{"kind": "exprs", "exprs": [...], "schema": s}`` -- hash computed columns,
* ``{"kind": "group"}`` -- row is ``(group_values, states)``; hash group_values,
* ``{"kind": "row"}`` -- hash the whole row (recursion's dup-elim partitioning),
* ``{"kind": "const"}`` -- single rendezvous key (global aggregates).

Rows are not shipped one message at a time: pushes buffer per routing
key for a short flush window (``FLUSH_DELAY``) and travel as one
``deliver_batch`` route message per key, so a rehash that moves k
co-keyed rows costs one multi-hop route (and one hop-ack per hop)
instead of k. ``max_batch_rows`` / ``MAX_BATCH_BYTES`` bound how much
a single message can carry; ``max_batch_rows = 1`` ships every row the
moment it is pushed, the original message-per-row behaviour (the
benchmarks' unbatched baseline).

Every payload carries its routing id (``rid``): the terminal owner
names it when it identifies itself to a learning sender.

Standing continuous plans add two behaviours:

* payloads are tagged with the epoch they belong to (namespaces are
  epoch-free, so the tag is how receivers sort late from current).
  Pending batches are keyed per epoch -- an overlapping-epoch plan can
  push rows for every live epoch of its ring through one exchange --
  and ``seal_epoch`` ships any still-buffered rows under a retiring
  epoch's tag;
* each payload's key, and whether it goes direct to a learned owner,
  follow the one owner-route rule of :mod:`repro.core.owners`.
"""

from repro.core.batch import columnar_wire
from repro.core.dataflow import EpochStateRing, Operator
from repro.core.operators import register_operator
from repro.dht.chord import storage_key
from repro.util.errors import PlanError
from repro.util.serde import uniform_row_size, wire_size


# How long a pushed row may wait for co-keyed company before its batch
# ships. A pending batch ships earlier once it holds max_batch_rows rows
# or MAX_BATCH_BYTES (modelled) bytes, whichever comes first.
FLUSH_DELAY = 0.25
MAX_BATCH_BYTES = 8192
# Owners a hot group's later partials are sharded across (hot-group
# splitting, ``EngineConfig.hot_group_threshold``).
HOT_GROUP_SHARDS = 4
# Ceilings for the caps adaptive flush and backpressure may raise: one
# message never carries more than this, however hot the edge.
ADAPTIVE_FLUSH_MAX_ROWS = 2048
ADAPTIVE_FLUSH_MAX_BYTES = 262144


def payload_rows(payload):
    """Rows carried by a ``deliver`` / ``deliver_batch`` payload.

    The wire shapes are produced by ``Exchange._route`` below; every
    consumer (engine delivery, unclaimed-row buffering, tree combiners)
    decodes them through here so all three stay defined in one place:

    * ``cols`` -- columnar batch: per-column value lists, transposed
      back to row tuples (uniform-arity batches; saves the per-row
      container framing on the wire);
    * ``rows`` -- row-shaped batch (the fallback for ragged rows);
    * ``data`` -- a single row.
    """
    cols = payload.get("cols")
    if cols is not None:
        return list(zip(*cols))
    rows = payload.get("rows")
    if rows is not None:
        return rows
    return (payload["data"],)


@register_operator("exchange")
class Exchange(Operator):
    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        consumers = ctx.plan.consumers_of(spec.op_id)
        if len(consumers) != 1:
            raise PlanError("exchange {!r} must feed exactly one op".format(spec.op_id))
        consumer_id, port = consumers[0]
        self._ns = ctx.namespace(consumer_id, port)
        # Routing must be port-independent: a join's two inputs have to
        # co-locate equal keys, so both exchanges hash under the consumer's
        # shared namespace and only the delivery tag carries the port.
        # Prefix-sharing members route under the shared prefix key (see
        # LocalQueryContext.route_namespace) so co-tenants co-locate.
        self._route_ns = ctx.route_namespace(consumer_id)
        self.mode = spec.params.get("mode", "rehash")
        if self.mode not in ("rehash", "tree"):
            raise PlanError("unknown exchange mode {!r}".format(self.mode))
        self._upcall = (
            ctx.upcall_name(consumer_id, port) if self.mode == "tree" else None
        )
        self._batch_key_fn = self._build_batch_key_fn(spec.params["key"])
        engine = ctx.engine
        config = engine.config
        self._max_batch_rows = config.max_batch_rows
        self._standing = ctx.plan.standing
        # Pane-tagged mode (paned plans whose pane-aware aggregate sits
        # *above* this exchange): remember the pane announced by the
        # upstream producer and stamp every batch with it, so delivery
        # on the far side can re-announce the pane before the rows land.
        self._paned = bool(spec.params.get("paned"))
        self._current_pane = None
        self._owners = engine.owners
        self._mid_fn = ctx.dht.fresh_mid
        # Region-aware two-level trees: a standing tree edge on a
        # region-labelled topology routes each partial through its own
        # region's combiner rendezvous first. The rendezvous absorbs
        # same-region partials into one level-1 combiner, which then
        # ships ONE combined partial per region across the backbone
        # toward the global owner (level 2 -- the ordinary combiner
        # forward machinery). Flat topologies have no region label and
        # keep the single-level tree.
        self._regional = (
            self._standing and self.mode == "tree" and engine.regional_trees
        )
        # Pending batches are keyed by epoch tag, then routing id: a
        # standing overlapping-epoch plan can push rows for several
        # live epochs through the same exchange instance, and each
        # batch must ship under the tag of the epoch that produced it.
        # Each epoch's state is {"rows": {rid: [rows]}, "bytes": {rid: n}}.
        self._pending = EpochStateRing(lambda: {"rows": {}, "bytes": {}})
        self._timer = None
        # Adaptive load management. ``adaptive_flush`` sizes the flush
        # window and batch caps from the observed arrival rate (EWMA
        # over one-second windows): hot edges gather a whole window
        # into few large messages, sparse edges stretch the window to
        # fill batches. The same switch turns on owner backpressure:
        # an "xbp" from an overloaded owner stretches both further via
        # the engine's per-namespace factor.
        self._clock = ctx.clock
        self._adaptive_flush = config.adaptive_flush
        self._stretch_fn = engine.exchange_flush_stretch
        self._rate = 0.0  # EWMA rows/sec through this exchange
        self._rate_count = 0
        self._rate_t0 = None
        # Hot-group splitting: standing group-partial edges whose one
        # routing key crosses the threshold within an epoch shard later
        # partials across k salted keys (k owners); the query site's
        # duplicate-owner merge re-unifies the group. Paned edges shard
        # by pane so each pane's history accumulates at one owner.
        self._hot_threshold = (
            config.hot_group_threshold
            if self._standing and spec.params["key"]["kind"] == "group"
            else 0
        )
        self._hot_counts = EpochStateRing(dict)  # epoch -> {rid: rows}
        self.hot_splits = 0  # rows routed under a shard key (introspection)

    def _build_batch_key_fn(self, key_spec):
        """Routing ids for a whole batch (one per row, in row order)."""
        kind = key_spec["kind"]
        if kind == "exprs":
            compiled = [
                e.compile_batch(key_spec["schema"])
                for e in key_spec["exprs"]
            ]

            def batch_keys(batch):
                cols = [fn(batch) for fn in compiled]
                if len(cols) == 1:
                    return [(v,) for v in cols[0]]
                return list(zip(*cols))

            return batch_keys
        if kind == "group":
            return lambda batch: [row[0] for row in batch.rows()]
        if kind == "row":
            return lambda batch: batch.rows()
        if kind == "const":
            return lambda batch: ["__root__"] * len(batch)
        raise PlanError("unknown exchange key kind {!r}".format(kind))

    def _note_arrivals(self, n):
        """Fold ``n`` pushed rows into the arrival-rate EWMA (rows/sec,
        observed through one-second windows)."""
        now = self._clock.now
        if self._rate_t0 is None:
            self._rate_t0 = now
        elif now - self._rate_t0 >= 1.0:
            observed = self._rate_count / (now - self._rate_t0)
            if self._rate == 0.0:
                self._rate = observed
            else:
                self._rate += 0.5 * (observed - self._rate)
            self._rate_count = 0
            self._rate_t0 = now
        self._rate_count += n

    def _flush_plan(self):
        """Current (delay, max_rows, max_bytes) under load adaptation.

        Static configuration returns the configured trio untouched. With
        ``adaptive_flush`` the window targets one base-cap batch per
        flush: sparse edges stretch the delay (up to 8x) so batches
        fill instead of trickling, hot edges keep the base window but
        raise the caps to one window's worth of rows, so the edge
        ships a few large messages instead of many cap-sized ones. A
        live backpressure stretch multiplies all three on top.
        """
        delay = FLUSH_DELAY
        max_rows = self._max_batch_rows
        max_bytes = MAX_BATCH_BYTES
        if self._adaptive_flush and self._rate > 0.0:
            desired = self._max_batch_rows / self._rate
            delay = min(max(delay, desired), FLUSH_DELAY * 8.0)
            target_rows = self._rate * delay
            if target_rows > max_rows:
                max_rows = int(min(target_rows, ADAPTIVE_FLUSH_MAX_ROWS))
                per_row = max(1, max_bytes // max(1, self._max_batch_rows))
                max_bytes = int(min(
                    max(max_bytes, max_rows * per_row),
                    ADAPTIVE_FLUSH_MAX_BYTES,
                ))
        stretch = self._stretch_fn(self._ns)
        if stretch > 1.0:
            delay *= stretch
            max_rows = int(min(max_rows * stretch, ADAPTIVE_FLUSH_MAX_ROWS))
            max_bytes = int(min(max_bytes * stretch,
                                ADAPTIVE_FLUSH_MAX_BYTES))
        return delay, max_rows, max_bytes

    def _hot_rid(self, rid, epoch, pane):
        """Shard a hot group's routing key across k owners.

        Counts pushed rows per (epoch, rid); once a key crosses the
        threshold its later rows route under ``("hot", rid, shard)``.
        Paned edges shard by pane (a pane's whole history must
        accumulate at one owner); unpaned edges round-robin by row
        count. Delivery and the final fold are rid-agnostic,
        and the coordinator merges the k owners' partial states for
        the group exactly as it merges duplicate owners after churn.
        """
        counts = self._hot_counts.state(epoch)
        n = counts.get(rid, 0) + 1
        counts[rid] = n
        if n <= self._hot_threshold:
            return rid
        self.hot_splits += 1
        shard = (pane if pane is not None else n) % HOT_GROUP_SHARDS
        return ("hot", rid, shard)

    def push_batch(self, batch, port=0):
        """Routing keys evaluate as columns and the rows append into
        per-(pane, rid) pending buckets under the row/byte caps.
        """
        if len(batch) == 0:
            return
        rows = batch.rows()
        keyed = zip(rows, self._batch_key_fn(batch))
        epoch = self._active_epoch() if self._standing else None
        pane = self._current_pane if self._paned else None
        if self._adaptive_flush:
            self._note_arrivals(len(batch))
        hot = self._hot_threshold and epoch is not None
        delay, max_rows, max_bytes = self._flush_plan()
        pending = self._pending.state(epoch)
        held_rows = pending["rows"]
        held_bytes = pending["bytes"]
        # One size for all when the rows are fixed-width throughout.
        row_size = uniform_row_size(rows)
        for row, rid in keyed:
            if hot:
                rid = self._hot_rid(rid, epoch, pane)
            # Batches are keyed by (pane, rid): a pane-tagged exchange
            # must never mix two panes' rows in one message, because
            # the tag is per batch.
            bucket = (pane, rid)
            bucket_rows = held_rows.setdefault(bucket, [])
            bucket_rows.append(row)
            size = held_bytes.get(bucket, 0) + (row_size or wire_size(row))
            held_bytes[bucket] = size
            if len(bucket_rows) >= max_rows or size >= max_bytes:
                del held_rows[bucket]
                del held_bytes[bucket]
                self._route(rid, bucket_rows, epoch, pane)
        if self._timer is None and held_rows:
            self._timer = self.ctx.dht.set_timer(delay, self._flush_pending)

    def _flush_pending(self, epoch=None):
        """Ship pending batches -- all of them, or just one epoch's."""
        if epoch is None:
            self._timer = None
            shipping = self._pending.items()
            self._pending.clear()
        else:
            state = self._pending.seal(epoch)
            shipping = [(epoch, state)] if state is not None else []
        for tag, state in shipping:
            for (pane, rid), rows in state["rows"].items():
                self._route(rid, rows, tag, pane)

    def _route(self, rid, rows, epoch=None, pane=None):
        if len(rows) == 1:
            payload = {"op": "deliver", "ns": self._ns, "rid": rid,
                       "data": rows[0]}
        else:
            payload = {"op": "deliver_batch", "ns": self._ns, "rid": rid}
            cols = columnar_wire(rows)
            if cols is not None:
                payload["cols"] = cols
            else:
                payload["rows"] = rows
        # Per-message dedup id: survives re-forwards of this exact
        # message, so the delivery layer drops at-least-once replays (a
        # delivered hop whose ack was lost).
        payload["mid"] = self._mid_fn()
        if not self._standing:
            self.ctx.dht.route(
                storage_key(self._route_ns, rid), payload, self._upcall)
            return
        payload["epoch"] = epoch
        if self._paned:
            payload["pane"] = pane
        if self.mode == "rehash":
            # The same epoch-free key routes every epoch: once its
            # terminal owner is learned, batches go direct in one hop.
            key, owner = self._owners.route(
                self._ns, self._route_ns, rid, payload, salt=False)
            if owner is not None:
                self.ctx.dht.route_via(owner, key, payload)
            else:
                self.ctx.dht.route(key, payload, self._upcall)
        elif self._paned:
            # Pane-tagged partials must accumulate at a *stable* owner:
            # epoch k+1's window reuses panes shipped during epoch k.
            self._ship(storage_key(self._route_ns, rid), payload)
        else:
            # Tree edges walk, so mid-route combiners stay in the path;
            # the cache only decides the learn ask and the salt.
            key, _owner = self._owners.route(
                self._ns, self._route_ns, rid, payload, salt=True)
            self._ship(key, payload)

    def _ship(self, key, payload):
        """Dispatch a standing tree partial, region-first when enabled.

        Regional trees redirect the *first hop* to this region's
        rendezvous, where the upcall intercept absorbs the partial into
        the region-local combiner; the combiner's later forward crosses
        the backbone once per region per flush. The message itself
        still targets the global key, so a dead rendezvous degrades to
        the normal walk (the hop machinery reroutes around it).
        """
        if self._regional:
            via = self.ctx.dht.region_rendezvous(key)
            if via is not None:
                self.ctx.dht.route_through(via, key, payload,
                                           upcall=self._upcall)
                return
        self.ctx.dht.route(key, payload, self._upcall)

    def open_pane(self, pane):
        """Pane markers stop at the exchange either way: a pane-tagged
        exchange records the pane and stamps it on the batches it ships
        (delivery re-announces it on the far side); an unpaned exchange
        swallows the marker so it cannot leak through the locally wired
        consumer edge."""
        if self._paned:
            self._current_pane = pane

    def flush(self):
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._flush_pending()

    def seal_epoch(self, k):
        # Ship leftovers tagged with the epoch they belong to;
        # receivers that already sealed it drop them as late.
        self._flush_pending(k)
        if self._hot_threshold:
            self._hot_counts.seal(k)

    def teardown(self):
        # Best effort, like the unbatched path: a row pushed just before
        # close would already be in flight; ship what we still hold.
        self.flush()


# benchmarks/perf/trace.py still wraps entry points by this name; ROADMAP
# item 20 moves it to names that exist.
ExchangeMux = Exchange
