"""Grid records: the one lifecycle every adopted query goes through.

A node's job per query is adopt, run on timers, forget. It does that
job once: every adopted query subscribes to one :class:`GridRecord` in
``PierEngine.records``, and the engine drives every record through the
same steps -- join, enter the grid, boundary, advance (build once, then
roll; hold the grid when no subscriber needs the epoch), retire a
subscriber, close when the last one left. The engine never asks what
kind of record it holds; the kinds differ only in what this module
says:

* :class:`SpineRecord` -- whole-dataflow sharing. Queries whose plans
  canonicalize identically (same ``share_signature``, see
  :mod:`repro.core.logical`) and whose epochs are in phase (same
  ``t0 % every``) run as ONE
  :class:`~repro.core.dataflow.StandingExecution` of the member plan,
  built with the record as its ``spine`` (``s|`` namespaces); each
  query only adds its identity (qid, origin) and its epoch *offset* on
  the grid. The result operator fans each epoch's rows to every
  subscriber whose window it answers (:meth:`SpineRecord.result_targets`),
  translated to that subscriber's own epoch number -- the coordinator
  cannot tell shared from private answers.

* :class:`FamilyRecord` -- a spine for queries in phase whose plans
  differ only in a threshold constant (``metadata["family"]``, see
  ``LogicalPlan.family_signature``): ONE
  :func:`~repro.core.planner.family_plan` folds each row once, into its
  interval between the members' constants, and ships every member's
  suffix (or prefix) state keyed by qid
  (:class:`~repro.core.aggregates.FamilyAggregate`), which the owner
  splits into each member's answer, one message per site.

* :class:`PrivateRecord` -- any plan the planner left unstamped
  (one-shot, recursive, bloom-staged, ``{"shared": False}``): key =
  qid, grid origin = the query's own ``t0``, one subscriber at offset
  0, and the execution its plan needs: the reference dataflow (a
  private ``StandingExecution`` under ``q|`` namespaces with its own
  scan), or a disposable :class:`~repro.core.dataflow.EpochExecution`.

* :class:`StageRecord` -- common-subplan sharing. Spines and families
  whose plans *differ* (predicates, groups, output shapes) but scan the
  same stream table on the same grid ride one stage: a two-op scan ->
  demux plan whose demux fans each epoch's scan waves into every
  member's execution. A stage holds its members **by reference**
  and owns their one boundary timer: at a boundary the engine advances
  each member, then the stage, so the demux only ever hands a wave to
  an execution that has already opened the epoch. A member that starts
  while its stage has an execution is seeded from the table's log
  (:meth:`StageRecord.seed`): the stage scan re-reads what it already
  emitted that the member's window covers, so the demux keeps no rows.
  A spine no stage feeds (join plans, DHT and local scans) keeps its
  own timer.

Every record reads its grid off its plan (:mod:`repro.core.opgraph`),
the grid the query site closes; a one-shot or recursive plan's is the
single epoch 0 at ``t0``, with no next boundary. Shared grid epochs
are ABSOLUTE: the origin is ``phase = t0 % every``, so epoch ``k``
means instant ``phase + k * every`` on every node whenever the plan
broadcast arrived. A query submitted at ``t0`` sits at
``offset = (t0 - phase) / every`` (an exact integer by construction)
and its own epoch ``j`` is grid epoch ``offset + j``. Stages and their
members share the phase, so a stage epoch IS the member's epoch.

Nobody reads a subscriber's epoch 0 (its submission instant), so a
record first builds at its earliest subscriber's ``offset +
first_epoch``, where the scan's initial full-window emission seeds the
window history exactly like a private twin's.

Soft-state discipline matches the rest of the engine: a crash wipes
every record; queries that still matter come back through the ring
neighbours' plan anti-entropy and re-form their records from scratch.
"""

from repro.core.aggregates import FamilyLayout
from repro.core.dataflow import (
    EpochExecution, StandingExecution, namespace_head,
)
from repro.core.opgraph import OpSpec, QueryPlan
from repro.core.planner import family_plan
from repro.db.expressions import column_threshold


def found_record(query, share_key):
    """The record ``query`` founds when none it could join runs here
    yet: its family or spine under its share key, else a record of its
    own."""
    plan = query.plan
    if share_key is None:
        return PrivateRecord(query.qid, plan, query.t0)
    kind = FamilyRecord if "family" in plan.metadata else SpineRecord
    return kind(share_key, plan, query.t0 % plan.every)


class GridRecord:
    """One execution on its plan's epoch grid (epoch ``k`` is the
    instant ``plan.t_k(t0, k)``) and the subscribers that still need
    it."""

    __slots__ = ("key", "plan", "t0", "subscribers", "execution",
                 "next_timer", "on_grid", "stage")

    def __init__(self, key, plan, t0):
        self.key = key
        self.plan = plan
        self.t0 = t0  # absolute instant of grid epoch 0
        self.subscribers = {}  # what keeps this execution alive
        self.execution = None
        self.next_timer = None  # own boundary timer (``stage is None``)
        # Advancing with the grid? False until the first build and
        # while held past every subscriber's horizon; a joiner then
        # re-enters.
        self.on_grid = False
        self.stage = None  # the StageRecord feeding (and advancing) us

    def next_boundary(self, k):
        """When this record's own timer opens epoch ``k + 1``; None when
        its stage advances it instead, or its plan has one epoch."""
        if self.stage is not None or not self.plan.standing:
            return None
        return self.plan.t_k(self.t0, k) + self.plan.every

    def subscribe(self, query):
        """Place ``query`` on this grid: its last epoch (a private
        record's origin is the query's ``t0``: offset 0)."""
        query.last_epoch = query.plan.last_epoch
        self.subscribers[query.qid] = query

    def first_epoch(self):
        """The first grid epoch anyone reads: the earliest
        subscriber's first epoch."""
        return min(s.offset for s in self.subscribers.values()) + self.plan.first_epoch

    def last_needed_epoch(self):
        """Last grid epoch any subscriber still needs, or None if one
        is unbounded (no LIFETIME)."""
        last = 0
        for sub in self.subscribers.values():
            if sub.last_epoch is None:
                return None
            last = max(last, sub.offset + sub.last_epoch)
        return last

    def members(self):
        """Records advanced at this record's boundary, before it."""
        return ()

    def opened(self, k, built):
        """Epoch ``k`` is open here (``built``: the execution was built
        for it)."""

    def left(self, engine):
        """The record closed: settle what it held outside itself."""


class SpineRecord(GridRecord):
    """The member plan run once for every subscribed query (``t0`` is
    the phase, so co-tenants on every node agree on epoch numbers)."""

    __slots__ = ()

    def subscribe(self, query):
        """Offset: how many periods ``query.t0`` lies past the phase."""
        query.offset = int(round((query.t0 - self.t0) / self.plan.every))
        super().subscribe(query)

    def build(self, engine, k, t_k):
        stage = self.stage
        return StandingExecution(
            engine, self.plan, self.key, k, t_k, engine.address, spine=self,
            prefix_key=stage.key if stage is not None else None,
        )

    def result_targets(self, epoch):
        """``(qid, origin, their_epoch)`` for every subscriber spine
        epoch ``epoch`` answers: ``their_epoch = epoch - offset``.
        Below 1 predates the subscriber's first window (its epoch 0 is
        the submission instant, never reported); past ``last_epoch`` is
        past its LIFETIME."""
        targets = []
        for sub in self.subscribers.values():
            j = epoch - sub.offset
            if j >= 1 and (sub.last_epoch is None or j <= sub.last_epoch):
                targets.append((sub.qid, sub.origin, j))
        return targets

    def left(self, engine):
        engine.owners.forget(namespace_head(self.key, spine=True))
        if self.stage is not None:
            engine._drop_subscriber(self.stage, self.key)


class FamilyRecord(SpineRecord):
    """A predicate family's one execution; ``layout`` cuts at the
    constants of the members reading now (from each one's first epoch
    through its last, as its own spine would)."""

    __slots__ = ("layout", "_fold")

    def __init__(self, key, plan, t0):
        super().__init__(key, family_plan(plan), t0)
        self.layout = None
        (self._fold,) = self.plan.ops_of_kind("family_partial")

    def subscribe(self, query):
        """A member joining a running family may start reading now."""
        super().subscribe(query)
        if self.on_grid and self.execution is not None:
            self.opened(self.execution.current_epoch, False)

    def opened(self, k, built):
        """Re-cut the layout for the members reading at ``k``. A new
        execution is seeded by its stage, as a spine is; those who start
        reading in a running one fold a seed under their keys alone."""
        reading = {}  # qid -> the member's constant
        for qid, _origin, _j in self.result_targets(k):
            (select,) = self.subscribers[qid].plan.ops_of_kind("select")
            reading[qid] = column_threshold(select.params["predicate"])[2]
        if built:
            self.layout = None
        held = self.layout.members if self.layout else {}
        if reading == held:
            return
        op, op_id = self._fold.params["op"], self._fold.op_id
        self.layout = FamilyLayout(op, reading) if reading else None
        joiners = {q: c for q, c in reading.items() if q not in held}
        execution, stage = self.execution, self.stage.execution
        if built or not joiners or stage is None:
            return
        seed = FamilyLayout(op, joiners)
        with execution.ctx.in_epoch(k):
            for batch in stage.ops["stage_scan"].emitted_for(k):
                execution.ops[op_id].fold(batch, seed)
        # A late joiner's epoch ``k`` flush may be past, as a spine built
        # now would find its own: the seed ships at once.
        engine = execution.engine
        if (self.plan.t_k(self.t0, k) + self.plan.flush_offsets[op_id]
                <= engine.clock.now):
            engine.set_timer(0.0, execution.flush_input, op_id, k)


class PrivateRecord(GridRecord):
    """One query's own execution: the reference dataflow."""

    __slots__ = ()

    def build(self, engine, k, t_k):
        (query,) = self.subscribers.values()
        execution = (StandingExecution if self.plan.standing
                     else EpochExecution)
        return execution(engine, self.plan, self.key, k, t_k, query.origin)

    def left(self, engine):
        engine.owners.forget(namespace_head(self.key))


class StageRecord(GridRecord):
    """One scan -> demux execution feeding every member spine.

    ``subscribers`` maps spine key -> :class:`SpineRecord`; ``plan`` is
    the two-op stage plan, cloned from the first member's scan spec so
    pane geometry, sampling and batching carry over. Every member reads
    the waves that spec emits, which is right because the prefix stamp
    covers what decides them: the table, EVERY, WINDOW and the options
    (sample rate included) through the prefix signature, and whether an
    overlapping window is paned or re-emitted whole through the
    planner's ``:whole`` suffix.
    """

    __slots__ = ()

    def __init__(self, key, plan, t0):
        scan_spec = plan.ops_of_kind("scan")[0]
        specs = [
            OpSpec("stage_scan", "scan", dict(scan_spec.params)),
            OpSpec("stage_demux", "demux", {}, ["stage_scan"]),
        ]
        super().__init__(key, QueryPlan(
            specs, "stage_demux", mode="continuous", every=plan.every,
            window=plan.window, deadline=plan.deadline, epoch_overlap=1,
            pane=plan.pane,
        ), t0)

    def members(self):
        return list(self.subscribers.values())

    def first_epoch(self):
        """The earliest member's first epoch."""
        return min(m.first_epoch() for m in self.subscribers.values())

    def last_needed_epoch(self):
        """The latest of the members' horizons (None = unbounded)."""
        horizons = [m.last_needed_epoch() for m in self.subscribers.values()]
        return None if None in horizons else max(horizons, default=0)

    def build(self, engine, k, t_k):
        execution = StandingExecution(
            engine, self.plan, "p|" + self.key, k, t_k, engine.address
        )
        # The demux reads the member map through the record; parked
        # before start() so the initial scan wave fans -- which seeds
        # every member already on the grid.
        execution.ctx.stage = self
        return execution

    def seed(self, members, k):
        """Hand ``members``, just built at epoch ``k`` beside this
        stage's execution, what its scan has already emitted that
        epoch ``k``'s window covers: one batch per pane, shared by
        every member joining at this point."""
        scan = self.execution.ops["stage_scan"]
        for batch in scan.emitted_for(k):
            for member in members:
                member.execution.deliver_scan(batch, k)
