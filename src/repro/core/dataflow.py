"""Per-node execution of an operator graph: one-shot epochs and
long-lived standing executions.

PIER's engine is push-based and non-blocking: scans push rows through
selections/projections into stateful operators (joins, group-bys),
which hold state until their *flush deadline* fires; exchanges move
rows between nodes through the DHT.

Two execution disciplines share the machinery:

* :class:`EpochExecution` -- one node's disposable instantiation of one
  plan for one epoch. One-shot and recursive queries use it; a one-shot
  plan that runs only at its query site (every scan a keyed ``get``) is
  one such execution, whose results go straight to the coordinator.
* :class:`StandingExecution` -- one node's *only* instantiation of a
  standing plan (``QueryPlan.standing``: every continuous plan).
  Operators are built and wired once; at every epoch boundary the
  engine calls :meth:`advance_epoch`, which rolls each operator over
  instead of tearing the graph down and rebuilding it. Exchange
  namespaces are epoch-free and registered once per query, batches
  carry an epoch tag, and arrivals tagged with an already-finished
  epoch are dropped at the door -- the soft-state answer to
  stragglers. A standing execution may also run as a shared *spine*
  serving many canonically identical queries at once: built with
  ``spine`` set, its context's ``s|`` namespaces and
  ``result_targets`` fan each epoch's answer out to every subscriber;
  a spine fed by a scan *stage* takes its scan waves through
  :meth:`StandingExecution.deliver_scan` (see :mod:`repro.core.sharing`).

Both see one :class:`LocalQueryContext`, which derives all of that
from the plan, the spine and the stage key.

Epoch rollover is a *two-phase open/seal lifecycle*. Opening epoch
``k`` (``Operator.open_epoch``) starts fresh per-epoch state and lets
sources emit the new epoch's delta; sealing an epoch
(``Operator.seal_epoch``) ships whatever the operator still holds for
it and discards that epoch's state. How far the two phases separate is
the plan's *epoch ring width* ``N = QueryPlan.epoch_overlap`` (derived
by the planner from the flush schedule: the ceiling of the worst flush
horizon over the period, transfer margin included; a standing
execution clamps it at ``RING_MAX_OVERLAP`` and never changes it at
run time). The execution
keeps an ordered map of open epoch states and seals epoch ``k - N``
when opening ``k``, so at most ``N`` epoch states are ever live per
operator: ``N = 1`` collapses to the classic single-boundary rollover
(seal ``k-1``, open ``k``), and longer flush schedules simply widen
the ring. Every delivery and flush runs
inside :meth:`LocalQueryContext.in_epoch`, so stateful operators
always know which epoch's state a row or deadline belongs to; their
per-epoch state lives behind :class:`EpochStateRing`, which keeps the
create-on-first-touch / discard-on-seal bookkeeping in one place.

End-of-stream is deliberately absent: a planetary-scale system cannot
agree on "all rows have arrived", so operators flush on plan-specified
deadlines and the query site closes each epoch at the plan's deadline.
Late rows are dropped, and counted in ``PierEngine.ring_late_drops``
-- the soft-state philosophy the paper leans on.
"""

from repro.core.batch import RowBatch

# A standing execution never keeps more than RING_MAX_OVERLAP epoch
# states live; the planner records the true, uncapped horizon.
RING_MAX_OVERLAP = 64


def namespace_head(key, spine=False):
    """``q|key|``, or ``s|key|`` for a spine's key: the one owner of the
    head every exchange namespace of ``key`` starts with. A context
    builds on it; whoever forgets a record's namespaces matches it."""
    return "{}|{}|".format("s" if spine else "q", key)


class _EpochScope:
    """``LocalQueryContext.in_epoch``: set ``active_epoch`` on entry,
    put the previous one back on exit (exception or not)."""

    __slots__ = ("_ctx", "_epoch", "_previous")

    def __init__(self, ctx, epoch):
        self._ctx = ctx
        self._epoch = epoch

    def __enter__(self):
        self._previous = self._ctx.active_epoch
        self._ctx.active_epoch = self._epoch

    def __exit__(self, *exc_info):
        self._ctx.active_epoch = self._previous


class LocalQueryContext:
    """What operator instances see of their environment: one class,
    derived from the plan and two values. ``spine`` is the
    :class:`~repro.core.sharing.SpineRecord` a shared execution serves
    (``query_id`` is its key, ``origin`` this node): namespaces take the
    ``s|`` / ``ts|`` heads (:func:`namespace_head`) and each epoch's
    answer fans out to every subscriber. ``prefix_key`` is the key of
    the scan stage feeding a spine: the scan goes passive
    (``prefix_fed``: rows arrive via
    :meth:`StandingExecution.deliver_scan`) and exchanges co-route
    co-tenants' rows (:meth:`route_namespace`). A site-run plan
    (``QueryPlan.at_site``) hands results straight to this node's
    coordinator.

    For standing executions ``epoch`` / ``t0`` are *mutable*: the
    execution re-points them at each boundary, after the operators have
    finished rolling the previous epoch over. ``active_epoch`` is the
    epoch the *current* push or flush belongs to -- usually equal to
    ``epoch``, but different while an overlapping-epoch execution
    delivers rows (or fires deadlines) for a still-live previous epoch.
    """

    def __init__(self, engine, plan, query_id, epoch, t0, origin,
                 spine=None, prefix_key=None):
        self.engine = engine
        self.dht = engine.dht
        self.clock = engine.clock
        self.plan = plan
        self.query_id = query_id
        self.epoch = epoch
        self.t0 = t0  # epoch start (plan-global sim time)
        self.origin = origin  # query-site address for result return
        self.active_epoch = epoch
        self.spine = spine
        self.prefix_key = prefix_key
        self.prefix_fed = prefix_key is not None
        self.stage = None  # on a scan stage's own execution: its record
        self._at_site = plan.at_site
        # Standing namespaces are epoch-free (batches carry the epoch
        # as data); a disposable execution's keep its one epoch.
        head = namespace_head(query_id, spine is not None)
        if not plan.standing:
            head += "{}|".format(epoch)
        self._ns_head = head
        # Tree-combining upcalls: ``t|`` beside ``q|``, ``ts|`` beside ``s|``.
        self._upcall_head = "t" + head.removeprefix("q")

    def in_epoch(self, epoch):
        """Scope ``active_epoch`` to ``epoch`` for one push/flush chain
        (a ``with`` block; leaving it restores the previous epoch).

        Pushes cascade synchronously through the local graph, so a
        dynamically scoped epoch tag is enough for every operator
        downstream to file the rows under the right epoch state.
        """
        return _EpochScope(self, epoch)

    def namespace(self, op_id, port):
        """DHT namespace for rows bound for (op, port)."""
        return "{}{}|{}".format(self._ns_head, op_id, port)

    def upcall_name(self, op_id, port):
        """Intercept name for aggregation-tree combining on this edge."""
        return "{}{}|{}".format(self._upcall_head, op_id, port)

    def route_namespace(self, op_id):
        """ROUTING namespace for the exchange feeding ``op_id``.

        Usually the ``"x"``-port delivery namespace; prefix-sharing
        members instead route under a namespace derived from the shared
        prefix key, so co-tenant queries' equal routing ids rendezvous
        at the SAME owner and their same-instant parts share each hop's
        bundle. Delivery stays per-query (``payload["ns"]``), so the
        owner hands each part to its own query's operator.
        """
        if self.prefix_key is not None:
            return "p|{}|{}|x".format(self.prefix_key, op_id)
        return self.namespace(op_id, "x")

    def fragment(self, table_name):
        """This node's local/stream fragment of ``table_name``."""
        return self.engine.fragment(table_name)

    def send_to_origin(self, payload, origin=None):
        """Ship a payload to the query site (result return): this
        query's, or ``origin`` (a spine answers many sites). A site-run
        plan's site is this node: its coordinator takes the payload."""
        if self._at_site:
            self.engine.coordinator.on_result(payload)
        else:
            self.dht.send_direct(origin or self.origin, payload)

    def result_targets(self, epoch):
        """Who gets this epoch's rows: ``(qid, origin, their_epoch)``
        triples -- this query alone, or every subscriber of a spine."""
        if self.spine is not None:
            return self.spine.result_targets(epoch)
        return ((self.query_id, self.origin, epoch),)


class EpochStateRing:
    """Per-epoch operator state behind the open/seal lifecycle.

    Every stateful operator holds what it has accumulated for each live
    epoch (hash tables, group states, pending batches, reflush timers)
    in one *state object per epoch*. The ring owns the bookkeeping that
    used to be re-implemented per operator:

    * ``state(epoch)`` creates the epoch's state lazily on first touch
      (``factory()``), so an epoch that never sees a row costs nothing;
    * ``seal(epoch)`` pops the state exactly once, running ``on_seal``
      (timer cancellation and the like) before handing it back to the
      caller -- after a seal the epoch's memory is reclaimed and any
      straggler touching it simply starts from ``peek() is None``;
    * ``clear()`` is teardown: every live state is sealed.

    The execution bounds how many epochs are live at once (its plan's
    ``epoch_overlap``); the ring itself only promises that state for an
    epoch exists between first touch and seal, and never after.
    """

    __slots__ = ("_factory", "_on_seal", "_states")

    def __init__(self, factory, on_seal=None):
        self._factory = factory
        self._on_seal = on_seal
        self._states = {}

    def state(self, epoch):
        """The epoch's state, created on first touch."""
        state = self._states.get(epoch)
        if state is None:
            state = self._states[epoch] = self._factory()
        return state

    def peek(self, epoch):
        """The epoch's state if it was ever touched and not yet sealed."""
        return self._states.get(epoch)

    def seal(self, epoch):
        """Discard (and return) the epoch's state; ``on_seal`` runs first."""
        state = self._states.pop(epoch, None)
        if state is not None and self._on_seal is not None:
            self._on_seal(state)
        return state

    def epochs(self):
        """Live epochs, ascending."""
        return sorted(self._states)

    def items(self):
        """(epoch, state) pairs for every live epoch, ascending."""
        return [(e, self._states[e]) for e in sorted(self._states)]

    def clear(self):
        """Teardown: seal every live epoch."""
        states, self._states = self._states, {}
        if self._on_seal is not None:
            for state in states.values():
                self._on_seal(state)

    def __contains__(self, epoch):
        return epoch in self._states

    def __len__(self):
        return len(self._states)

    def __repr__(self):
        return "EpochStateRing(live={})".format(sorted(self._states))


class Operator:
    """Base class for operator instances.

    Lifecycle: ``start`` (once, after wiring; scans emit here), then any
    number of ``push_batch(batch, port)`` calls, then ``flush`` at the
    plan's deadline for this op (stateful ops emit held state), finally
    ``teardown``. ``control`` receives coordinator control messages
    (e.g. a merged Bloom filter).

    An operator sees rows only through ``push_batch``: it is the one
    data entry point every operator implements, and rows move between
    operators only as :class:`~repro.core.batch.RowBatch`. ``push``
    exists once, here, as a one-row-batch convenience; no subclass
    overrides it.

    Standing executions add the epoch lifecycle. ``open_epoch(k, t_k)``
    begins epoch ``k``: sources emit the new epoch's delta, stateful
    operators lazily start a fresh per-epoch state on first push.
    ``seal_epoch(k)`` finishes epoch ``k`` at this operator: ship
    whatever is still held under that epoch's tag (exchanges, result
    sinks) or discard it (post-flush straggler state), exactly where a
    disposable per-epoch execution's teardown would have. The execution keeps up to
    ``plan.epoch_overlap`` epochs open at once and drives the two
    phases directly -- sealing ``k - N`` before opening ``k`` -- so an
    operator never needs to know the ring width. Stateful operators
    key their state by ``ctx.active_epoch`` (kept in an
    :class:`EpochStateRing`), which the execution scopes around every
    delivery and flush.

    Rows arrive only through :meth:`push_batch`, and a batch carries
    everything they need: on a paned plan that includes their pane
    (``RowBatch.pane``), which the pane-aware operators read.
    """

    def __init__(self, ctx, spec):
        self.ctx = ctx
        self.spec = spec
        self.consumers = []  # (operator instance, port)

    def wire(self, consumer, port):
        """Connect this operator's output to ``consumer``'s input port."""
        self.consumers.append((consumer, port))

    def start(self):
        """Run once after the graph is wired; sources emit here."""
        pass

    def push_batch(self, batch, port=0):
        """Receive a :class:`RowBatch` on ``port`` -- the one data entry
        point (operators without inputs raise).

        An implementation must not depend on how its input was chunked:
        N one-row batches and one N-row batch leave the same state
        behind and the same rows downstream (the chunking-invariance
        suite holds every operator to it).
        """
        raise NotImplementedError(
            "{} does not accept input".format(type(self).__name__)
        )

    def push(self, row, port=0):  # noqa: DEF001 -- unit tests feed rows here
        """Receive one row on ``port``: a one-row ``push_batch``."""
        self.push_batch(RowBatch(rows=[row]), port)

    def flush(self):
        """Plan deadline for this op: emit held state downstream.

        Runs inside ``ctx.in_epoch`` scoping, so per-epoch operators
        flush exactly the state of ``ctx.active_epoch``.
        """
        pass

    def control(self, payload):
        """Receive a coordinator control message (Bloom filters etc.)."""
        pass

    def open_epoch(self, k, t_k):
        """Begin epoch ``k`` (sources emit the epoch's delta here)."""
        pass

    def seal_epoch(self, k):
        """Finish epoch ``k``: ship or drop anything still held for it."""
        pass

    def teardown(self):
        """Execution is closing: release subscriptions, ship leftovers."""
        pass

    def emit_batch(self, batch):
        """Push a :class:`RowBatch` to every wired consumer."""
        for consumer, port in self.consumers:
            consumer.push_batch(batch, port)

    def reset_batch(self):
        """A cumulative upstream operator is about to re-emit its full
        state (streaming refinement after stragglers). Stateless ops
        just propagate; replace-mode sinks clear their current batch.
        """
        for consumer, _port in self.consumers:
            consumer.reset_batch()

    def _active_epoch(self):
        """Epoch tag for the current push/flush."""
        return self.ctx.active_epoch

    def _run_in_epoch(self, epoch, fn):
        """Run ``fn`` with ``ctx.active_epoch`` scoped to ``epoch``.

        Operator-internal timers (refinement re-flushes, async fetch
        replies) fire outside the execution's own epoch scoping and use
        this to restore the epoch their state belongs to.
        """
        with self.ctx.in_epoch(epoch):
            fn()

    def __repr__(self):
        return "{}({!r})".format(type(self).__name__, self.spec.op_id)


class _ExecutionBase:
    """Shared graph instantiation, delivery, and flush scheduling."""

    def __init__(self, engine, plan, query_id, epoch, t0, origin,
                 spine=None, prefix_key=None):
        from repro.core.operators import create_operator

        self.engine = engine
        self.plan = plan
        self.ctx = LocalQueryContext(
            engine, plan, query_id, epoch, t0, origin, spine, prefix_key)
        self.ops = {}
        self._flush_timers = []
        self.closed = False

        for spec in plan.specs.values():
            self.ops[spec.op_id] = create_operator(self.ctx, spec)
        for spec in plan.specs.values():
            producer = self.ops[spec.op_id]
            for consumer_id, port in plan.consumers_of(spec.op_id):
                producer.wire(self.ops[consumer_id], port)

    def start(self):
        """Register network endpoints, start ops (sources last)."""
        self._register_endpoints()
        sources = self._source_ids()
        for op_id, op in self.ops.items():
            if op_id not in sources:
                op.start()
        for op_id in sources:
            self.ops[op_id].start()
        self._schedule_flushes(self.ctx.epoch, self.ctx.t0)

    def _source_ids(self):
        """Source op ids in the order they start, open and seal: the
        latest-declared first (a join's right scan before its left).
        A fixed order, not a set's: what a multi-scan plan sends first
        at an instant decides the latency draws of everything after
        it, so hash order made runs depend on ``PYTHONHASHSEED``. On
        the perf workloads' two-scan plans this is the order the set
        took under ``PYTHONHASHSEED=0``, the seed their baselines were
        measured with."""
        return [s.op_id for s in reversed(self.plan.sources())]

    def _register_endpoints(self):
        """Tell the engine which exchange namespaces feed which ops
        (each ``Exchange`` checked its mode and its one consumer when
        it was built)."""
        for spec in self.plan.ops_of_kind("exchange"):
            ((consumer_id, port),) = self.plan.consumers_of(spec.op_id)
            tree = spec.params.get("mode") == "tree"
            self.engine.register_exchange_input(
                self.ctx.namespace(consumer_id, port), self, consumer_id,
                port, spec.params.get("combine") if tree else None)

    def _unregister_endpoints(self):
        for spec in self.plan.ops_of_kind("exchange"):
            ((consumer_id, port),) = self.plan.consumers_of(spec.op_id)
            self.engine.unregister_exchange_input(
                self.ctx.namespace(consumer_id, port))

    def _schedule_flushes(self, epoch, t0):
        """Arm one timer per planned flush offset of epoch ``epoch``
        (which starts at ``t0``).

        Timers are tracked as ``(epoch, timer)`` so a standing
        execution can cancel exactly one epoch's deadlines when it
        seals that epoch.
        """
        now = self.engine.clock.now
        for op_id, offset in self.plan.flush_offsets.items():
            if op_id not in self.ops:
                continue
            delay = max(0.0, t0 + offset - now)
            timer = self.engine.set_timer(
                delay, self.flush_input, op_id, epoch)
            self._flush_timers.append((epoch, timer))

    def flush_input(self, op_id, epoch):
        """Flush one operator's held state for ``epoch``.

        Its planned flush timers call this; so does the engine, out of
        band, after replaying early-buffered exchange rows into a
        freshly adopted execution: the epoch's scheduled flush wave may
        already be past (or dangerously far off on a node that might
        churn again), and replayed rows should reach the query site as
        soon as they land.
        """
        if self.closed:
            return
        with self.ctx.in_epoch(epoch):
            self.ops[op_id].flush()

    def deliver_batch(self, op_id, port, rows, epoch=None, pane=None):
        """An exchange message arrived: feed the consumer its rows as
        one batch. A disposable execution's payloads carry no epoch or
        pane tag."""
        if self.closed:
            return
        self.ops[op_id].push_batch(RowBatch(rows=list(rows)), port)

    def control(self, op_id, payload, epoch=None):
        """Deliver a control payload to one op, or to a filter group.

        Bloom control messages target a group id shared by both stage
        ops of a join rather than a single op id, and carry the epoch
        whose filters they complete: delivery is scoped to that epoch
        so per-epoch operator state files the release correctly.
        """
        if self.closed:
            return
        targets = []
        op = self.ops.get(op_id)
        if op is not None:
            targets.append(op)
        else:
            targets = [
                candidate for candidate in self.ops.values()
                if candidate.spec.params.get("group") == op_id
            ]
        with self.ctx.in_epoch(epoch if epoch is not None else self.ctx.epoch):
            for target in targets:
                target.control(payload)

    def close(self):
        """Tear the execution down: cancel timers, teardown every op,
        release this node's exchange registrations. Idempotent; later
        deliveries hit the ``closed`` guard and drop."""
        if self.closed:
            return
        self.closed = True
        for _epoch, timer in self._flush_timers:
            timer.cancel()
        self._flush_timers = []
        # Teardown before unregistering: an exchange's teardown flush
        # can deliver self-owned rows synchronously, and with the
        # namespace still registered they hit this execution's closed
        # guard (a cheap drop) instead of the engine's unclaimed-row
        # buffer (held for its whole TTL).
        for op in self.ops.values():
            op.teardown()
        self._unregister_endpoints()

    def __repr__(self):
        return "{}({!r}, epoch={}, node={})".format(
            type(self).__name__, self.ctx.query_id, self.ctx.epoch,
            self.engine.address)


class EpochExecution(_ExecutionBase):
    """One node's disposable instantiation of a plan for one epoch."""


class StandingExecution(_ExecutionBase):
    """One node's long-lived instantiation of a standing continuous plan.

    Built once by its grid record; the record's boundary timer then
    has the engine call :meth:`advance_epoch`. Exchange inputs
    are registered once (epoch-free namespaces), so the engine's
    early-row buffering window shrinks to first adoption only, and
    arrivals carry an epoch tag checked here: tags for sealed epochs
    are dropped as late, early tags (a sender whose boundary timer
    fired first) are parked until this node advances. Scan waves from
    a shared stage need neither: the stage opens the epoch here before
    it emits (:meth:`deliver_scan`).

    The execution keeps an ordered map of open epochs bounded by the
    plan's ring width ``N = plan.epoch_overlap`` (clamped at
    ``RING_MAX_OVERLAP``; ``live_epochs``): opening epoch ``k``
    seals every epoch at or below ``k - N``. A sealed epoch's still-
    pending flush timers are cancelled with it; the surviving epochs'
    deadlines -- which may stretch several periods past their boundary
    -- keep firing against their own state, and exchange arrivals
    tagged with any open epoch still land in it. ``N = 1`` is the
    classic one-live-epoch rollover; larger ``N`` is how slow flush
    schedules (tree holds, bloom round-trips) run standing.
    """

    def __init__(self, engine, plan, query_id, epoch, t0, origin,
                 spine=None, prefix_key=None):
        super().__init__(engine, plan, query_id, epoch, t0, origin,
                         spine=spine, prefix_key=prefix_key)
        self._early = {}  # epoch -> [(op_id, port, rows, pane)]
        self._open_epochs = {epoch: t0}  # epoch -> t_k, ascending
        # The planner records the plan's true flush horizon; the
        # execution keeps that many epochs live, clamped at
        # RING_MAX_OVERLAP. Rows for an epoch the ring already sealed
        # drop as late (``engine.ring_late_drops``).
        self.live_epochs = min(plan.epoch_overlap, RING_MAX_OVERLAP)

    @property
    def overlap(self):
        """True when the ring holds more than one live epoch."""
        return self.live_epochs > 1

    @property
    def current_epoch(self):
        """The newest open epoch."""
        return self.ctx.epoch

    def advance_epoch(self, k, t_k):
        """Epoch boundary: open ``k``, sealing every epoch <= ``k - N``."""
        if self.closed:
            return
        for stale in sorted(
            e for e in self._open_epochs if e <= k - self.live_epochs
        ):
            self._seal_epoch(stale)
        now = self.engine.clock.now
        self._flush_timers = [
            (e, t) for e, t in self._flush_timers
            if not t.cancelled and t.time > now
        ]
        self._open_epochs[k] = t_k
        self._move_context(k, t_k)
        sources = self._source_ids()
        for op_id, op in self.ops.items():
            if op_id not in sources:
                op.open_epoch(k, t_k)
        self._schedule_flushes(k, t_k)
        # Sources last: scans emit the new epoch's delta into consumers
        # that have already opened it.
        for op_id in sources:
            self.ops[op_id].open_epoch(k, t_k)
        # Rows parked for ``k`` land now. Rows parked for an epoch a
        # jump skipped (a held spine re-entered by a joiner) are late:
        # that epoch will never open here.
        for e in sorted(e for e in self._early if e <= k):
            for op_id, port, rows, pane in self._early.pop(e):
                self.deliver_batch(op_id, port, rows, e, pane)

    def _move_context(self, k, t_k):
        self.ctx.epoch = k
        self.ctx.t0 = t_k
        self.ctx.active_epoch = k

    def _seal_epoch(self, e):
        """Close epoch ``e`` everywhere: ship leftovers, drop its state."""
        self._open_epochs.pop(e, None)
        kept = []
        for epoch, timer in self._flush_timers:
            if epoch == e:
                timer.cancel()
            else:
                kept.append((epoch, timer))
        self._flush_timers = kept
        sources = self._source_ids()
        with self.ctx.in_epoch(e):
            for op_id, op in self.ops.items():
                if op_id not in sources:
                    op.seal_epoch(e)
            for op_id in sources:
                self.ops[op_id].seal_epoch(e)

    def deliver_batch(self, op_id, port, rows, epoch=None, pane=None):
        """Exchange arrival tagged ``epoch``: deliver into that epoch's
        state if it is open here, drop it as late if it is older than
        the newest open epoch (sealed, or skipped by a jump), park it as
        early if this node has not opened it yet. ``pane``
        is the payload's pane tag (paned plans), put on the batch."""
        if self.closed:
            return
        if epoch is None:
            epoch = self.ctx.epoch
        if epoch not in self._open_epochs:
            if epoch < self.ctx.epoch:
                # Late: that epoch already closed here. Untagged rows
                # drop (their per-epoch state is gone), but a
                # pane-tagged increment is *ship-once* delta state
                # whose pane store deliberately outlives epochs --
                # dropping it would under-count every remaining window
                # covering the pane. Re-file it under the oldest open
                # epoch instead; the pane tag, not the epoch, decides
                # where it lands.
                if pane is None or not self._open_epochs:
                    self.engine.ring_late_drops += 1
                    return
                epoch = min(self._open_epochs)
            elif epoch > self.ctx.epoch + 2:
                return  # implausibly far ahead: don't park unboundedly
            else:
                self._early.setdefault(epoch, []).append(
                    (op_id, port, list(rows), pane)
                )
                return
        with self.ctx.in_epoch(epoch):
            self.ops[op_id].push_batch(
                RowBatch(rows=list(rows), pane=pane), port)

    def deliver_scan(self, batch, epoch):
        """One scan wave from the shared stage, for ``epoch``.

        A stage-fed member's scan is passive; the stage's demux calls
        this instead, with the one :class:`RowBatch` every member of
        the stage reads (and
        :meth:`~repro.core.sharing.StageRecord.seed`, with a joiner's
        seed), and the member's scan emits it as it is, pane and all:
        its rows were examined, charged and sampled once at the stage.
        Unlike :meth:`deliver_batch` there is nothing to drop or park:
        the wave comes from this node's own stage, which advances every
        member to ``epoch`` before it emits (and builds a joiner before
        seeding it), so the epoch is open here. A stage-stamped plan
        has exactly one scan.
        """
        (scan,) = self.plan.ops_of_kind("scan")
        with self.ctx.in_epoch(epoch):
            self.ops[scan.op_id].emit_batch(batch)

    def close(self):
        early, self._early = self._early, {}
        self._open_epochs = {}
        super().close()
        # Rows sent for an epoch not opened here go back to the
        # engine's early-row buffer, for whoever registers the namespace
        # next (a family's joiner founding it anew) to replay.
        for epoch in sorted(early):
            for op_id, port, rows, pane in early[epoch]:
                self.engine._on_unclaimed_delivery({
                    "ns": self.ctx.namespace(op_id, port), "rows": rows,
                    "epoch": epoch, "pane": pane}, None)
