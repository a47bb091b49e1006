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
* ``{"kind": "row"}`` -- hash the whole row (recursion's dup-elim partitioning).

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
# Ceilings for the caps owner backpressure may raise: one message
# never carries more than this, however hot the edge.
BACKPRESSURE_MAX_ROWS = 2048
BACKPRESSURE_MAX_BYTES = 262144


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
        self._max_batch_rows = engine.config.max_batch_rows
        self._standing = ctx.plan.standing
        # Pane-tagged mode (paned plans whose pane-aware aggregate sits
        # *above* this exchange): stamp every message with the pane of
        # the batch its rows came in, so delivery on the far side puts
        # it back on the batch it builds.
        self._paned = bool(spec.params.get("paned"))
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
        # Owner backpressure: an "xbp" from an overloaded owner
        # stretches the flush window and batch caps toward it via the
        # engine's per-namespace factor.
        self._stretch_fn = engine.exchange_flush_stretch

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
        raise PlanError("unknown exchange key kind {!r}".format(kind))

    def _flush_plan(self):
        """Current (delay, max_rows, max_bytes): the base trio, times
        the owner's live backpressure stretch (caps clamped at the
        ``BACKPRESSURE_MAX_*`` ceilings)."""
        delay = FLUSH_DELAY
        max_rows = self._max_batch_rows
        max_bytes = MAX_BATCH_BYTES
        stretch = self._stretch_fn(self._ns)
        if stretch > 1.0:
            delay *= stretch
            max_rows = int(min(max_rows * stretch, BACKPRESSURE_MAX_ROWS))
            max_bytes = int(min(max_bytes * stretch, BACKPRESSURE_MAX_BYTES))
        return delay, max_rows, max_bytes

    def push_batch(self, batch, port=0):
        """Routing keys evaluate as columns and the rows append into
        per-(pane, rid) pending buckets under the row/byte caps.
        """
        if len(batch) == 0:
            return
        rows = batch.rows()
        keyed = zip(rows, self._batch_key_fn(batch))
        epoch = self._active_epoch() if self._standing else None
        pane = batch.pane
        delay, max_rows, max_bytes = self._flush_plan()
        pending = self._pending.state(epoch)
        held_rows = pending["rows"]
        held_bytes = pending["bytes"]
        # One size for all when the rows are fixed-width throughout.
        row_size = uniform_row_size(rows)
        for row, rid in keyed:
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

    def flush(self):
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._flush_pending()

    def seal_epoch(self, k):
        # Ship leftovers tagged with the epoch they belong to;
        # receivers that already sealed it drop them as late.
        self._flush_pending(k)

    def teardown(self):
        # Best effort, like the unbatched path: a row pushed just before
        # close would already be in flight; ship what we still hold.
        self.flush()


# benchmarks/perf/trace.py still wraps entry points by this name; ROADMAP
# item 20 moves it to names that exist.
ExchangeMux = Exchange
