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
  :class:`~repro.core.dataflow.StandingExecution` of the member plan
  under a :class:`~repro.core.dataflow.SharedQueryContext`; each query
  only adds its identity (qid, origin) and its epoch *offset* on the
  grid. The result operator fans each epoch's rows to every subscriber
  whose window it answers, translated to that subscriber's own epoch
  number -- the coordinator cannot tell shared from private answers.

* :class:`PrivateRecord` -- a continuous plan the planner left
  unstamped (bloom-staged, ``{"shared": False}``): key = qid, grid
  origin = the query's own ``t0``, one subscriber at offset 0, and the
  reference dataflow -- a private ``StandingExecution`` under ``q|``
  namespaces with its own scan.

* :class:`OneEpochRecord` -- one-shot and recursive plans: a private
  record whose grid is the single instant ``t0``. Epoch 0 is the only
  epoch, there is no next boundary, and the execution is a disposable
  :class:`~repro.core.dataflow.EpochExecution`.

* :class:`StageRecord` -- common-subplan sharing. Spines whose plans
  *differ* (predicates, groups, output shapes) but scan the same
  stream table on the same grid ride one stage: a two-op scan -> demux
  plan whose demux fans each epoch's scan waves into every member
  spine's execution. A stage holds its member spines **by reference**
  and owns their one boundary timer: at a boundary the engine advances
  each member, then the stage, so the demux only ever hands a wave to
  an execution that has already opened the epoch. A spine no stage
  feeds (join plans, DHT and local scans) keeps its own timer.

Shared grid epochs are ABSOLUTE: the origin is ``phase = t0 % every``,
so epoch ``k`` means instant ``phase + k * every`` on every node
whenever the plan broadcast arrived. A query submitted at ``t0`` sits
at ``offset = (t0 - phase) / every`` (an exact integer by construction)
and its own epoch ``j`` is grid epoch ``offset + j``. Stages and their
members share the phase, so a stage epoch IS the member's epoch.

Nobody reads a subscriber's epoch 0 (its submission instant), so a
record first builds at its earliest subscriber's ``offset + 1``, where
the scan's initial full-window emission seeds the window history
exactly like a private twin's.

Soft-state discipline matches the rest of the engine: a crash wipes
every record; queries that still matter come back through the ring
neighbours' plan anti-entropy and re-form their records from scratch.
"""

from repro.core.dataflow import EpochExecution, StandingExecution
from repro.core.opgraph import OpSpec, QueryPlan


def found_record(query, share_key):
    """The record ``query`` founds when none it could join runs here
    yet: a spine under its share key, else a record of its own."""
    plan = query.plan
    if share_key is not None:
        return SpineRecord(share_key, plan, query.t0 % plan.every)
    if plan.mode == "continuous":
        return PrivateRecord(query.qid, plan, query.t0)
    return OneEpochRecord(query.qid, plan, query.t0)


class GridRecord:
    """One execution on an epoch grid (epoch ``k`` is the instant
    ``t0 + k * every``) and the subscribers that still need it."""

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

    def epoch_at(self, now):
        """The grid epoch in progress at ``now``."""
        return int(max(0.0, now - self.t0) // self.plan.every)

    def t_k(self, k):
        return self.t0 + k * self.plan.every

    def next_boundary(self, k):
        """When this record's own timer opens epoch ``k + 1``; None when
        its stage advances it instead."""
        if self.stage is not None:
            return None
        return self.t_k(k) + self.plan.every

    def subscribe(self, query):
        """Place ``query`` on this grid. Returns the instant its last
        epoch's window ends (None: no LIFETIME); the engine retires it
        a deadline and straggler grace later."""
        plan = query.plan
        query.offset = int(round((query.t0 - self.t0) / plan.every))
        self.subscribers[query.qid] = query
        if plan.lifetime is None:
            return None
        query.last_epoch = int(plan.lifetime / plan.every + 1e-9)
        return query.t0 + plan.lifetime

    def first_epoch(self):
        """The first grid epoch anyone reads: the earliest
        subscriber's epoch 1."""
        return min(sub.offset for sub in self.subscribers.values()) + 1

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

    def left(self, engine):
        """The record closed: settle what it held outside itself."""


class SpineRecord(GridRecord):
    """The member plan run once for every subscribed query (``t0`` is
    the phase, so co-tenants on every node agree on epoch numbers)."""

    __slots__ = ("needs_backfill",)

    def __init__(self, key, plan, t0):
        super().__init__(key, plan, t0)
        # Set while this (paned) spine still needs its stage's
        # retained panes; the demux injects them once.
        self.needs_backfill = False

    def build(self, engine, k, t_k):
        stage = self.stage
        return StandingExecution(
            engine, self.plan, self.key, k, t_k, engine.address, spine=self,
            prefix_key=stage.key if stage is not None else None,
        )

    def left(self, engine):
        engine._forget_route_state("s|{}|".format(self.key))
        if self.stage is not None:
            engine._drop_subscriber(self.stage, self.key)


class PrivateRecord(GridRecord):
    """One query's own standing execution: the reference dataflow."""

    __slots__ = ()

    def build(self, engine, k, t_k):
        (query,) = self.subscribers.values()
        return StandingExecution(
            engine, self.plan, self.key, k, t_k, query.origin
        )

    def left(self, engine):
        engine._forget_route_state("q|{}|".format(self.key))


class OneEpochRecord(GridRecord):
    """A plan with no period: epoch 0 at ``t0`` is all there is."""

    __slots__ = ()

    def epoch_at(self, now):
        return 0

    def first_epoch(self):
        return 0

    def t_k(self, k):
        return self.t0

    def next_boundary(self, k):
        return None

    def subscribe(self, query):
        query.last_epoch = 0
        self.subscribers[query.qid] = query
        return query.t0

    def build(self, engine, k, t_k):
        (query,) = self.subscribers.values()
        return EpochExecution(
            engine, self.plan, self.key, k, t_k, query.origin
        )


class StageRecord(GridRecord):
    """One scan -> demux execution feeding every member spine.

    ``subscribers`` maps spine key -> :class:`SpineRecord`; ``plan`` is
    the two-op stage plan, cloned from the first member's scan spec so
    pane geometry and batching carry over (every co-tenant lowers an
    identical scan spec by construction: it is covered by the prefix
    signature).
    """

    __slots__ = ()

    def __init__(self, key, plan, t0):
        scan_spec = plan.ops_of_kind("scan")[0]
        geometry = scan_spec.params.get("paned")
        specs = [
            OpSpec("stage_scan", "scan", dict(scan_spec.params)),
            OpSpec("stage_demux", "demux",
                   {"paned": geometry} if geometry else {}, ["stage_scan"]),
        ]
        super().__init__(key, QueryPlan(
            specs, "stage_demux", mode="continuous", every=plan.every,
            window=plan.window, deadline=plan.deadline, standing=True,
            epoch_overlap=1, pane=plan.pane,
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
        for member in self.subscribers.values():
            if member.on_grid:
                member.needs_backfill = False
        return execution

    def demux(self):
        return self.execution.ops["stage_demux"]
