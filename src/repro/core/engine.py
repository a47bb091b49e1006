"""The per-node PIER engine.

One engine runs on every node, calling that node's
:class:`~repro.dht.chord.ChordNode` (``self.dht``) directly. It:

* holds the node's table fragments (local rows, stream windows) and
  publishes rows into DHT tables,
* adopts query plans that arrive by broadcast and runs each on timers
  through ONE lifecycle: every adopted query subscribes to a
  :class:`~repro.core.sharing.GridRecord` in ``records`` (join, enter
  the grid, boundary, advance, retire, close). The record's kind says
  what is built and when (see :mod:`repro.core.sharing`): a *spine*
  shared by every query whose plan carries one logical share signature
  (``plan.metadata["spine"]``) and epoch phase, a predicate *family*
  for plans that differ only in a threshold constant
  (``plan.metadata["family"]``), a *private* record of the query's
  own, and the scan *stage* feeding spines and families that differ
  but scan one stream table alike (``plan.metadata["prefix"]``), each on
  its plan's epoch grid, the one the query site closes; a subscriber
  retires at ``QueryPlan.retire_instant``. Continuous plans run a
  long-lived :class:`~repro.core.dataflow.StandingExecution` whose
  operators roll over through the open/seal epoch lifecycle at every
  boundary (the plan's ring width ``QueryPlan.epoch_overlap`` says how
  many epoch states stay live, so flush schedules spanning several
  periods and per-epoch bloom round-trips fit it too); one-shot and
  recursive plans a disposable
  :class:`~repro.core.dataflow.EpochExecution`,
* takes the exchange deliveries its DHT node terminates (``on_deliver``)
  to the operator input claiming the namespace -- once per epoch for
  disposable executions, once per *query* for standing ones; every
  namespace starts with its query's
  :func:`~repro.core.dataflow.namespace_head` -- and buffers early
  arrivals that beat the plan broadcast to this node,
* keeps its continuous plans and stop tombstones in step with its ring
  neighbours (``plansync``, :mod:`repro.core.plansync`), so that a
  missed broadcast or a crash heals and exchange cannot resurrect a
  stopped query,
* learns the terminal owners of its standing exchange keys
  (``owners``, :mod:`repro.core.owners`),
* reports recursion progress to the query site for quiescence
  detection.

Engines keep only soft state: a crash loses fragments, executions,
adopted queries, tombstones and learned owners.
"""

from itertools import groupby
from operator import itemgetter
import math

from repro.core.aggregation_tree import TreeCombiner
from repro.core.dataflow import namespace_head
from repro.core.exchange import payload_rows
from repro.core.owners import OWNER_OPS, OwnerCache
from repro.core.plansync import SYNC_OP, PlanSync
from repro.core.sharing import StageRecord, found_record
from repro.db.table import make_fragment
from repro.util.serde import wire_size


# Timings and caps no bench, example or app ever set: a knob nobody
# turns is a constant. Tests that need a small value monkeypatch it.
TREE_HOLD_DELAY = 0.8  # how long a combiner holds partials to merge them
PROGRESS_BATCH_DELAY = 0.5  # recursion progress notes coalesce this long
PUBLISH_TTL = 120.0  # DHT-table row lifetime when the table names none
# Rows that arrive before their query's plan does are buffered per
# namespace: dropped UNDELIVERED_TTL after the first early row, never
# more than UNDELIVERED_CAP held.
UNDELIVERED_TTL = 15.0
UNDELIVERED_CAP = 512
# Owner backpressure: every standing namespace whose inflow tops
# BACKPRESSURE_ROWS_PER_SEC asks its origins to stretch their flushes
# by up to BACKPRESSURE_FACTOR; each "xbp" lives BACKPRESSURE_TTL
# seconds, which is also the resend limit. The TTL must outlive a 5 s
# epoch cadence: stream scans deliver in per-epoch bursts, so a shorter
# stretch would expire between them.
BACKPRESSURE_ROWS_PER_SEC = 60.0
BACKPRESSURE_FACTOR = 8.0
BACKPRESSURE_TTL = 12.0


class EngineConfig:
    """Per-engine knobs (plan-independent).

    Each survivor is set to a non-default value by a gated exhibit or
    is the reference leg of a differential test; everything nobody set
    is a module constant beside its one reader.

    ============================== ======= ==============================
    knob                           default who sets it otherwise, and why
    ============================== ======= ==============================
    ``max_batch_rows``             64      ``bench_exchange_batching``
                                           sweeps the per-message cap; 1
                                           ships one route message per
                                           row, the unbatched baseline
    ``regional_trees``             True    ``bench_geo_regions`` and
                                           ``tests/test_geo_regions.py``:
                                           False is the flat-tree
                                           reference. On engages only on
                                           a region-labelled topology
    ============================== ======= ==============================
    """

    def __init__(self, max_batch_rows=64, regional_trees=True):
        self.max_batch_rows = max_batch_rows
        self.regional_trees = regional_trees


class AdoptedQuery:
    """An engine's view of one adopted query: the plan as broadcast and
    its place as a subscriber of the grid record that runs it."""

    __slots__ = ("qid", "plan", "t0", "origin", "record", "offset",
                 "last_epoch", "retire_timer")

    def __init__(self, qid, plan, t0, origin):
        self.qid = qid
        self.plan = plan
        self.t0 = t0
        self.origin = origin
        self.record = None  # the GridRecord this query subscribes to
        self.offset = 0  # record epoch k answers my epoch k - offset
        self.last_epoch = None  # my last epoch (None = unbounded)
        self.retire_timer = None

    @property
    def execution(self):
        """The execution serving this query, once its record built one
        -- the one read path from a qid to its dataflow."""
        return self.record.execution


class PierEngine:
    def __init__(self, dht, catalog, config=None, rng=None):
        self.dht = dht
        self.catalog = catalog
        self.config = config if config is not None else EngineConfig()
        self.rng = rng
        self.clock = dht.clock
        self.address = dht.address
        self.region = dht.region
        # Two-level aggregation trees take their shape from the
        # topology: on wherever this node has a region label.
        self.regional_trees = (
            self.config.regional_trees and self.region is not None
        )

        self.fragments = {}
        self.queries = {}  # qid -> AdoptedQuery
        # share key or qid -> GridRecord: every execution this node runs
        self.records = {}
        self.combiners = {}  # ns -> TreeCombiner
        self._inputs = {}  # exchange ns -> deliver(payload, route_msg)
        # Rows arriving before registration: ns -> (drop-dead time,
        # [rows], [(epoch, pane) tag per row]).
        self._undelivered = {}
        self._undelivered_timer = None
        self.plansync = PlanSync(self)
        self.owners = OwnerCache(dht)
        # Backpressure: inbound standing-exchange row accounting per
        # namespace (detection side, this node as owner) and TTL'd
        # flush-stretch factors (reaction side, this node as sender).
        self._bp_inflow = {}  # ns -> {"count", "t0", "origins"}
        self._bp_sent = {}  # ns -> last xbp send time
        self._bp_stretch = {}  # ns -> (factor, expiry)
        self.ring_late_drops = 0  # rows a standing ring dropped as late
        self._progress_pending = {}  # (qid, epoch) -> count
        self._progress_timer = None
        self._publish_seq = 0
        self._maintained = {}  # (table, instance_id) -> republish timer
        self.rows_scanned = 0  # scan effort counter (benchmarks)
        self.rows_aggregated = 0  # rows folded into stateful window ops
        self.rows_merged = 0  # partial states folded at group owners
        self.tree_forwards = 0  # combiner forwards (closed combiners)
        self.tree_hop_shortcuts = 0  # of which went direct to a cached owner
        self.coordinator = None  # set by Coordinator.attach

        dht.on_broadcast(self._on_broadcast)
        dht.on_direct(self._on_direct)
        dht.on_deliver(self._deliver_payload)
        dht.on_neighbor_digest(self.plansync.digest, self.plansync.on_digest)

    # ------------------------------------------------------------------
    # Data management
    # ------------------------------------------------------------------
    def fragment(self, table_name):
        """This node's fragment of a local/stream table (created lazily)."""
        fragment = self.fragments.get(table_name)
        if fragment is None:
            fragment = make_fragment(self.catalog.lookup(table_name))
            self.fragments[table_name] = fragment
        return fragment

    def local_insert(self, table_name, rows):
        self.fragment(table_name).insert_many(rows)

    def stream_append(self, table_name, row, timestamp=None):
        now = self.clock.now
        fragment = self.fragment(table_name)
        stored = fragment.append(now if timestamp is None else timestamp, row)
        # Feed the shared runtime-stats catalog (admission control's
        # arrival-rate view; there when the testbed enabled stats) what
        # ``wire_size(row)`` returns -- a constant of a fixed-width
        # schema for a row stored as it came.
        stats = self.catalog.stats
        if stats is not None:
            nbytes = fragment.schema.fixed_row_bytes
            if nbytes is None or stored is not row:
                nbytes = wire_size(row)
            stats.note_append(table_name, nbytes, now)

    def publish(self, table_name, row, ttl=None, keep_alive=False):
        """Insert into a DHT table: the row travels to its partition owner.

        With ``keep_alive`` the row becomes *maintained* soft state:
        this node re-puts it every ttl/3 so it survives the storing
        node's crashes (the replacement owner receives the next re-put).
        Maintenance stops when this node crashes or calls
        :meth:`stop_publishing` -- after which the row simply expires,
        which is the only deletion mechanism PIER has.
        """
        table_def = self.catalog.lookup(table_name)
        row = table_def.schema.row(row)
        rid = row[table_def.schema.index_of(table_def.partition_key)]
        self._publish_seq += 1
        instance_id = (self.address, self._publish_seq)
        if ttl is None:
            ttl = table_def.ttl if table_def.ttl is not None else PUBLISH_TTL
        self.dht.put(table_name, rid, instance_id, row, ttl)
        if keep_alive:
            self._keep_alive(table_name, rid, instance_id, row, ttl)
        return instance_id

    def _keep_alive(self, table_name, rid, instance_id, row, ttl):
        key = (table_name, instance_id)
        period = ttl / 3.0

        def republish():
            if key not in self._maintained:
                return
            self.dht.put(table_name, rid, instance_id, row, ttl)
            self._maintained[key] = self.set_timer(period, republish)

        self._maintained[key] = self.set_timer(period, republish)

    def stop_publishing(self, table_name, instance_id):
        """Let a maintained row age out (soft-state deletion)."""
        timer = self._maintained.pop((table_name, instance_id), None)
        if timer is not None:
            timer.cancel()

    def set_timer(self, delay, callback, *args):
        return self.dht.set_timer(delay, callback, *args)

    def note_rows_scanned(self, n):
        """Scan-effort accounting (rows examined by scan operators)."""
        self.rows_scanned += n

    def note_rows_aggregated(self, n):
        """Aggregation-effort accounting: rows folded into group-by /
        top-k state. Paned sliding windows fold each row once; the
        from-scratch path re-folds the whole window every epoch, so the
        ratio of these counters is the paned benchmark's headline."""
        self.rows_aggregated += n

    def note_rows_merged(self, n):
        """Owner-side accounting: partial state rows folded by final
        group-bys. Distributed panes ship each pane's increment once,
        so this drops by the window overlap versus re-shipping every
        group's full window state each epoch -- the distributed-panes
        benchmark's headline."""
        self.rows_merged += n

    # ------------------------------------------------------------------
    # Plan adoption and epoch scheduling
    # ------------------------------------------------------------------
    def _on_broadcast(self, payload, origin_ref, depth):
        if not isinstance(payload, dict):
            return
        ctl = payload.get("ctl")
        if ctl == "plan":
            for qid, plan in payload["plans"].items():
                self._adopt_query({
                    "qid": qid, "plan": plan, "t0": payload["t0"],
                    "origin": payload["origin"],
                })
        elif ctl == "stop":
            self._stop_query(payload["qid"], payload["until"])
        elif ctl == "bloom":
            # Merged filters for any still-open epoch of a standing
            # execution's ring reach it through its query.
            query = self.queries.get(payload["qid"])
            execution = query.execution if query is not None else None
            if execution is not None:
                execution.control(
                    payload["op_id"], {"filters": payload["filters"]},
                    payload["epoch"],
                )

    def _adopt_query(self, payload):
        qid = payload["qid"]
        if qid in self.queries:
            return  # a plan sync racing the broadcast, or vice versa
        plan = payload["plan"]
        if self.clock.now >= plan.retire_instant(payload["t0"]):
            return  # past the instant every node retires it (_join_shared)
        self.owners.sweep()
        if self.plansync.buried(qid):
            return  # a plan still in flight when the stop landed
        query = AdoptedQuery(qid, plan, payload["t0"], payload["origin"])
        self.queries[qid] = query
        self._join_shared(query)

    # ------------------------------------------------------------------
    # One grid record per execution, one lifecycle
    # ------------------------------------------------------------------
    def _share_key(self, plan, t0, kind):
        """Sharing identity for a plan at submission time ``t0``.

        ``kind`` names the planner's stamp in ``plan.metadata``:
        ``"spine"`` is the logical share signature (identical bodies
        share the whole dataflow), ``"family"`` the predicate family's
        (only a threshold constant differs), ``"prefix"`` the logical
        *prefix* signature (plans that differ in predicates/groups yet
        scan the same stream table on the same grid share one scan
        stage). Each is hashed in its own domain: one dict holds all.

        The signature alone is not enough: two identical queries
        submitted half a period apart tick on different grids. The key
        therefore pairs the signature with the epoch *phase*
        ``t0 % every`` (in integer milliseconds, so float noise cannot
        split a spine). Plans the planner left unstamped (one-shot,
        bloom-staged, ``shared=False``) return None and run under a
        record of their own.
        """
        sig = plan.metadata.get(kind) if plan.metadata else None
        if sig is None:
            return None
        phase_ms = int(round((t0 % plan.every) * 1000))
        return "{}@{}".format(sig, phase_ms)

    def _join_shared(self, query):
        """Enroll an adopted query as a subscriber of its grid record:
        its family or spine, else a record keyed by its qid.

        The first subscriber founds the record and, when the plan
        carries a prefix stamp, makes it a member of that stage
        (founded likewise). A shared grid's origin is the phase
        instant, so grid epoch ``k`` is always ``phase + k * every`` on
        every node regardless of adoption order; the subscriber's own
        epochs map onto the grid through its offset.
        """
        plan = query.plan
        share_key = (self._share_key(plan, query.t0, "family")
                     or self._share_key(plan, query.t0, "spine"))
        rec = self.records.get(share_key or query.qid)
        if rec is None:
            rec = found_record(query, share_key)
            self.records[rec.key] = rec
            stage_key = self._share_key(plan, query.t0, "prefix")
            if stage_key is not None:
                stage = self.records.get(stage_key)
                if stage is None:
                    stage = self.records[stage_key] = StageRecord(
                        stage_key, plan, rec.t0
                    )
                stage.subscribers[rec.key] = rec
                rec.stage = stage
        query.record = rec
        rec.subscribe(query)
        retire_at = plan.retire_instant(query.t0)
        if retire_at < math.inf:
            # The subscriber retires on its own clock, once its last
            # epoch has settled (a plan sync landing mid-final-epoch
            # must hit the duplicate-adoption guard, not found a second
            # execution over the same namespaces); the record holds (or
            # closes) only when no subscriber needs the next epoch.
            query.retire_timer = self.set_timer(
                max(0.0, retire_at - self.clock.now),
                self._retire_subscriber, query,
            )
        if not rec.on_grid:
            self._enter_grid(rec)

    def _enter_grid(self, rec, k_now=None):
        """(Re)enter the grid: a new record, one still waiting for its
        first epoch, or one held past every subscriber's horizon.

        Nobody reads a subscriber's epoch 0, so below the record's
        first epoch (its earliest subscriber's epoch 1) there is nothing
        to build: the record waits, and its first build's initial
        full-window emission seeds its window history exactly like a
        private adoption's. A record with its own timer arms it for
        that epoch. A stage-fed spine arms none: its stage's next
        boundary builds it (members first, then the stage) and seeds it
        from the stage scan's log (:meth:`StageRecord.seed`) before the
        stage emits that epoch's wave -- or, when the stage is not
        running either, the stage waits for the earliest member's first
        epoch and its initial full-history emission seeds every member
        at once. A joiner re-enters a waiting record, since it may read
        an earlier epoch.

        A late adopter joins the epoch *in progress*: the rendezvous
        for its epoch-free exchange keys may hash to this very node, so
        waiting for the next boundary would drop every current-epoch
        row routed here. Registration replays any early rows buffered
        under this epoch's tag, and already-due flush timers fire
        immediately. A late stage-fed spine gets the current window at
        once: seeded with what the stage scan already emitted for it
        when the stage has an execution (after a hold, the stage's gap
        emission then adds the rest), else from the stage's initial
        emission.
        Stage and member are on one grid, so they enter at one epoch:
        the running stage's, else the one the member read off the clock
        and hands down as ``k_now``.
        """
        stage = rec.stage
        if stage is not None and stage.on_grid:
            k_now = stage.execution.current_epoch
        elif k_now is None:
            k_now = rec.plan.epoch_at(rec.t0, self.clock.now)
        if rec.next_timer is not None:
            rec.next_timer.cancel()  # waiting: re-decided below
            rec.next_timer = None
        if stage is not None:
            if rec.execution is not None:
                # Stage-fed and back after a hold: the waves fanned past
                # its horizon skipped it, so its retained pane state has
                # gaps. Soft-state answer: rebuild the execution from
                # scratch; it is re-seeded from the stage.
                old, rec.execution = rec.execution, None
                old.close()
        first = rec.first_epoch()
        if k_now < first:
            if stage is None:
                rec.next_timer = self.set_timer(
                    max(0.0, rec.plan.t_k(rec.t0, first) - self.clock.now),
                    self._on_boundary, rec, first,
                )
            elif not stage.on_grid:
                self._enter_grid(stage, k_now)
            return
        self._advance_shared(rec, k_now)
        if stage is None or not rec.on_grid:
            return
        if stage.execution is not None:
            # Waves the stage already emitted for k_now went past us.
            stage.seed([rec], k_now)
        if not stage.on_grid:
            self._enter_grid(stage, k_now)

    def _on_boundary(self, rec, k):
        """``rec``'s boundary timer: its members open epoch ``k`` first
        (join order), so every wave the record then emits lands in an
        execution that is already there. Members built here beside a
        running stage are seeded first with what it already emitted
        that epoch ``k``'s window covers."""
        rec.next_timer = None
        joined = []
        for member in rec.members():
            built = member.execution is None
            self._advance_shared(member, k)
            if built and member.on_grid:
                joined.append(member)
        if joined and rec.execution is not None:
            rec.seed(joined, k)
        self._advance_shared(rec, k)

    def _advance_shared(self, rec, k):
        """Grid epoch ``k`` at ``rec``: build once, then roll; hold the
        grid when no subscriber's lifetime reaches ``k``."""
        last = rec.last_needed_epoch()
        rec.on_grid = last is None or k <= last
        if not rec.on_grid:
            return  # until a joiner re-enters at its current epoch
        t_k = rec.plan.t_k(rec.t0, k)
        built = rec.execution is None
        if built:
            rec.execution = rec.build(self, k, t_k)
            rec.execution.start()
        else:
            rec.execution.advance_epoch(k, t_k)
        rec.opened(k, built)
        boundary = rec.next_boundary(k)
        if boundary is not None:
            rec.next_timer = self.set_timer(
                max(0.0, boundary - self.clock.now),
                self._on_boundary, rec, k + 1,
            )

    def _retire_subscriber(self, query):
        """A subscriber's last epoch (plus straggler grace) is over."""
        self.queries.pop(query.qid, None)  # soft-state expiry
        self._drop_subscriber(query.record, query.qid)

    def _drop_subscriber(self, rec, sub_id):
        """Leave the execution to its co-tenants; the last one out
        closes it."""
        rec.subscribers.pop(sub_id, None)
        if rec.subscribers:
            return
        del self.records[rec.key]
        if rec.next_timer is not None:
            rec.next_timer.cancel()
        execution, rec.execution = rec.execution, None
        if execution is not None:
            execution.close()
        rec.left(self)

    def _stop_query(self, qid, until):
        """Stop ``qid`` here and tombstone it until ``until``, its
        plan's retire instant."""
        # Remember the stop regardless of whether we run the query: a
        # plan still in flight, or a neighbour the stop missed, must not
        # re-adopt a stopped query.
        self.owners.sweep()
        self.plansync.bury(qid, until)
        # Early rows held for this query's namespaces will never find a
        # subscriber now; drop them instead of waiting out their TTL.
        # (Done even without a query record: a node the plan broadcast
        # missed can still have buffered rehashed rows for it.)
        prefix = namespace_head(qid)
        for ns in [n for n in self._undelivered if n.startswith(prefix)]:
            del self._undelivered[ns]
        query = self.queries.pop(qid, None)
        if query is None:
            return
        if query.retire_timer is not None:
            query.retire_timer.cancel()
        self._drop_subscriber(query.record, qid)

    # ------------------------------------------------------------------
    # Exchange plumbing
    # ------------------------------------------------------------------
    def register_exchange_input(self, ns, execution, op_id, port, combine=None):
        """Claim an exchange namespace for a local operator input.

        ``combine`` carries tree-mode parameters ({"agg_specs": ...});
        when present a :class:`TreeCombiner` intercept is installed so
        this node merges pass-through partials for that edge.

        Delivery hands the execution each payload's epoch and pane tags
        (a disposable execution's payloads carry neither), and buffered
        early rows replay one batch per run of equal tags.
        """
        standing = execution.plan.standing

        def deliver(payload, route_msg):
            rows = payload_rows(payload)
            if standing:
                self._note_exchange_inflow(
                    ns, len(rows), route_msg.origin.address)
            execution.deliver_batch(
                op_id, port, rows, payload.get("epoch"), payload.get("pane"))

        self._inputs[ns] = deliver
        if combine is not None:
            # Under regional trees, absorption only happens at region
            # rendezvous (senders route through them), so forwards are
            # level-2 sends that skip further mid-route absorption.
            ctx = execution.ctx
            combiner = TreeCombiner(
                self.dht, ns, ctx.route_namespace(op_id),
                ctx.upcall_name(op_id, port), combine["agg_specs"],
                TREE_HOLD_DELAY, self.owners,
                paned=combine.get("paned", False),
                regional=standing and self.regional_trees,
            )
            self.combiners[ns] = combiner
            self.dht.register_intercept(combiner.upcall, combiner.handler)
        _expiry, rows, tags = self._undelivered.pop(ns, (None, (), ()))
        # Each run of consecutive rows with equal (epoch, pane) tags
        # replays as one batch, arrival order preserved; a disposable
        # buffer is one run tagged (None, None).
        replayed_epochs = set()
        for (epoch_tag, pane_tag), run in groupby(
                zip(tags, rows), key=itemgetter(0)):
            execution.deliver_batch(
                op_id, port, [row for _tag, row in run], epoch_tag, pane_tag)
            if epoch_tag is not None:
                replayed_epochs.add(epoch_tag)
        # Replayed rows arrived before this node could subscribe
        # (typically a rejoined node that just got the plan back), so
        # those epochs' flush waves are largely behind them. Waiting for
        # the next planned deadline risks the rows dying held if this
        # node churns again; nudge the consumer to ship them as soon as
        # the registration settles.
        for epoch_tag in replayed_epochs:
            self.set_timer(0.0, execution.flush_input, op_id, epoch_tag)

    # ------------------------------------------------------------------
    # Owner backpressure
    # ------------------------------------------------------------------
    def _note_exchange_inflow(self, ns, n, origin):
        """Owner-side arrival accounting for one standing namespace:
        ``n`` rows from the node at address ``origin``.

        Rates are measured over rolling one-second windows; when a
        window's rate exceeds ``BACKPRESSURE_ROWS_PER_SEC``, every
        origin that contributed to it receives an "xbp" direct message
        asking it to stretch its flush window (rate-limited to one send
        per TTL per namespace, so a hot edge costs O(origins) control
        messages per TTL, not per batch).
        """
        now = self.clock.now
        state = self._bp_inflow.get(ns)
        if state is None or now - state["t0"] >= 1.0:
            if state is not None:
                self._maybe_send_backpressure(ns, state, now)
            state = self._bp_inflow[ns] = {
                "count": 0, "t0": now, "origins": set(),
            }
        state["count"] += n
        if origin != self.address:
            state["origins"].add(origin)

    def _maybe_send_backpressure(self, ns, state, now):
        elapsed = max(now - state["t0"], 1e-9)
        rate = state["count"] / elapsed
        threshold = BACKPRESSURE_ROWS_PER_SEC
        if rate <= threshold or not state["origins"]:
            return
        last = self._bp_sent.get(ns, -1e18)
        ttl = BACKPRESSURE_TTL
        if now - last < ttl:
            return
        self._bp_sent[ns] = now
        factor = min(BACKPRESSURE_FACTOR, rate / threshold)
        # Sorted, not set order: the send order decides the latency
        # draws after it, and a string set's order follows the hash seed.
        for origin in sorted(state["origins"]):
            self.dht.send_direct(origin, {
                "op": "xbp", "ns": ns, "factor": factor, "ttl": ttl,
            })

    def exchange_flush_stretch(self, ns):
        """Current flush-window stretch factor for a namespace (>= 1.0).

        Exchanges multiply their flush delay and batch caps by this
        while a backpressured owner's TTL is live: fewer, larger
        messages toward the overloaded node.
        """
        entry = self._bp_stretch.get(ns)
        if entry is None:
            return 1.0
        factor, expiry = entry
        if expiry <= self.clock.now:
            del self._bp_stretch[ns]
            return 1.0
        return factor

    def unregister_exchange_input(self, ns):
        self._inputs.pop(ns, None)
        combiner = self.combiners.pop(ns, None)
        if combiner is not None:
            combiner.close()
            # Fold the edge's hop accounting into engine totals so the
            # benches can still read it after the execution tears down.
            self.tree_forwards += combiner.forwarded
            self.tree_hop_shortcuts += combiner.hop_shortcuts
            self.dht.unregister_intercept(combiner.upcall)
        self._bp_inflow.pop(ns, None)
        self._bp_sent.pop(ns, None)
        self._undelivered.pop(ns, None)

    def _deliver_payload(self, payload, route_msg):
        """The DHT's upcall, its ``mid`` already consumed."""
        self.owners.answer(payload, route_msg)
        deliver = self._inputs.get(payload["ns"])
        if deliver is not None:
            deliver(payload, route_msg)
        else:
            self._on_unclaimed_delivery(payload, route_msg)

    def _on_unclaimed_delivery(self, payload, route_msg):
        # Rows can beat the plan to this node; hold them until the
        # execution registers. Nothing guarantees a plan ever arrives
        # (the query may already be stopping), so the buffer is bounded
        # two ways: each namespace is dropped ``UNDELIVERED_TTL`` after
        # its first early row, and holds at most ``UNDELIVERED_CAP``
        # rows; what it sheds is dropped silently. A node that merely
        # missed the broadcast gets the plan from plan anti-entropy.
        ns = payload["ns"]
        incoming = payload_rows(payload)
        held = self._undelivered.get(ns)
        if held is None:
            held = self._undelivered[ns] = (
                self.clock.now + UNDELIVERED_TTL, [], [])
            if self._undelivered_timer is None:
                self._undelivered_timer = self.set_timer(
                    UNDELIVERED_TTL, self._expire_undelivered
                )
        _expiry, rows, tags = held
        space = UNDELIVERED_CAP - len(rows)
        if space > 0:
            taken = list(incoming[:space])
            rows.extend(taken)
            tags.extend(
                [(payload.get("epoch"), payload.get("pane"))] * len(taken)
            )

    def _expire_undelivered(self):
        self._undelivered_timer = None
        now = self.clock.now
        for ns in [n for n, held in self._undelivered.items() if held[0] <= now]:
            del self._undelivered[ns]
        if self._undelivered:
            next_deadline = min(held[0] for held in self._undelivered.values())
            self._undelivered_timer = self.set_timer(
                max(0.0, next_deadline - now), self._expire_undelivered
            )

    # ------------------------------------------------------------------
    # Recursion progress (quiescence detection support)
    # ------------------------------------------------------------------
    def note_progress(self, qid, epoch, count):
        key = (qid, epoch)
        self._progress_pending[key] = self._progress_pending.get(key, 0) + count
        if self._progress_timer is None:
            self._progress_timer = self.set_timer(
                PROGRESS_BATCH_DELAY, self._send_progress
            )

    def _send_progress(self):
        self._progress_timer = None
        pending, self._progress_pending = self._progress_pending, {}
        for (qid, epoch), count in pending.items():
            record = self.queries.get(qid)
            if record is None or count == 0:
                continue
            self.dht.send_direct(record.origin, {
                "op": "qprog", "qid": qid, "epoch": epoch,
                "node": self.address, "new": count,
            })

    # ------------------------------------------------------------------
    # Direct messages: engine-level control, then coordinator traffic
    # ------------------------------------------------------------------
    def _on_direct(self, payload, src):
        if not isinstance(payload, dict):
            return
        op = payload.get("op")
        if op in OWNER_OPS:
            self.owners.on_reply(payload)
            return
        if op == "xbp":
            # An overloaded owner asks us to stretch flushes toward it.
            # Factors do not stack -- the largest live request wins --
            # and the TTL makes the signal self-expiring soft state.
            ns = payload["ns"]
            factor = max(1.0, float(payload["factor"]))
            expiry = self.clock.now + float(payload["ttl"])
            current = self._bp_stretch.get(ns)
            if current is None or factor >= current[0]:
                self._bp_stretch[ns] = (factor, expiry)
            return
        if op == SYNC_OP:
            self.plansync.on_sync(payload, src)
            return
        if self.coordinator is None:
            return
        if op == "qres":
            self.coordinator.on_result(payload)
        elif op == "qparts":  # a family's qres, one part per member
            for qid, epoch, rows in payload["parts"]:
                self.coordinator.on_result(dict(
                    payload, op="qres", qid=qid, epoch=epoch, rows=rows))
        elif op == "qprog":
            self.coordinator.on_progress(payload)
        elif op == "qbloom":
            self.coordinator.on_bloom(payload)

    # ------------------------------------------------------------------
    # Failure semantics
    # ------------------------------------------------------------------
    def on_crash(self):
        """Node failed: all engine state is soft and is dropped."""
        self.fragments = {}
        self.queries = {}
        self.records = {}  # boundary timers die with the crash
        self.combiners = {}
        self._inputs = {}  # they point into the executions that just died
        self._undelivered = {}
        self._undelivered_timer = None  # node timers die with the crash
        # Cleared in place: the DHT's neighbour-digest hooks are bound
        # to ``plansync``.
        self.plansync.tombstones.clear()
        self.owners.clear()
        self._bp_inflow = {}
        self._bp_sent = {}
        self._bp_stretch = {}
        self._progress_pending = {}
        self._progress_timer = None
        self._maintained = {}  # the publisher died; its rows will expire
        if self.coordinator is not None:
            self.coordinator.on_crash()

    def __repr__(self):
        return "PierEngine({!r}, {} queries, {} records)".format(
            self.address, len(self.queries), len(self.records)
        )
