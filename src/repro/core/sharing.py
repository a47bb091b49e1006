"""Shared standing executions: one grid record, two ways to build it.

Standing queries that the *logical* plan proved alike (see
:mod:`repro.core.logical`) run on shared executions. Every shared
execution is one :class:`GridRecord` in ``PierEngine._shared`` and goes
through one lifecycle there -- join, advance (build once, then roll;
hold the grid when no subscriber needs the epoch), drop a subscriber,
close. The two kinds differ only in what this module says:

* :class:`SpineRecord` -- whole-dataflow sharing. Queries whose plans
  canonicalize identically (same ``share_signature``) and whose epochs
  are in phase (same ``t0 % every``) run as ONE
  :class:`~repro.core.dataflow.StandingExecution` of the member plan
  under a :class:`~repro.core.dataflow.SharedQueryContext`; each query
  is a :class:`SpineSubscriber` carrying only its identity (qid,
  origin) and its epoch *offset* on the grid. The result operator fans
  each epoch's rows to every subscriber whose window it answers,
  translated to that subscriber's own epoch number -- the coordinator
  cannot tell shared from private answers.

* :class:`StageRecord` -- common-subplan sharing. Spines whose plans
  *differ* (predicates, groups, output shapes) but scan the same
  stream table on the same grid ride one stage: a two-op scan -> demux
  plan whose demux fans each epoch's scan waves into every member
  spine's execution. A stage holds its member spines **by reference**
  and owns their one boundary timer: at a boundary the engine advances
  each member, then the stage, so the demux only ever hands a wave to
  an execution that has already opened the epoch. A spine no stage
  feeds (join plans, DHT and local scans) keeps its own timer.

Grid epochs are ABSOLUTE: the origin is ``phase = t0 % every``, so
epoch ``k`` means instant ``phase + k * every`` on every node whenever
the plan broadcast arrived. A query submitted at ``t0`` sits at
``offset = (t0 - phase) / every`` (an exact integer by construction)
and its own epoch ``j`` is grid epoch ``offset + j``. Stages and their
members share the phase, so a stage epoch IS the member's epoch.

Soft-state discipline matches the rest of the engine: a crash wipes
every record; standing queries that still matter are re-adopted from
their coordinator's re-broadcast and re-form spine and stage from
scratch.
"""

from repro.core.dataflow import StandingExecution
from repro.core.opgraph import OpSpec, QueryPlan


class SpineSubscriber:
    """One query riding a spine: identity + epoch-grid placement."""

    __slots__ = ("qid", "origin", "offset", "last_epoch")

    def __init__(self, qid, origin, offset, last_epoch):
        self.qid = qid
        self.origin = origin
        self.offset = offset  # spine epoch k answers my epoch k - offset
        self.last_epoch = last_epoch  # my last epoch (None = unbounded)


class GridRecord:
    """One shared execution on the absolute epoch grid (``t0`` = phase)
    and the subscribers that still need it."""

    __slots__ = ("key", "plan", "t0", "subscribers", "execution",
                 "next_timer", "on_grid", "stage")

    def __init__(self, key, plan, t0):
        self.key = key
        self.plan = plan
        self.t0 = t0  # = phase: absolute instant of grid epoch 0
        self.subscribers = {}  # what keeps this execution alive
        self.execution = None
        self.next_timer = None  # own boundary timer (``stage is None``)
        # Advancing with the grid? False before the first build and
        # while held past every subscriber's horizon; a joiner then
        # re-enters at the current epoch.
        self.on_grid = False
        self.stage = None  # the StageRecord feeding (and advancing) us

    def members(self):
        """Records advanced at this record's boundary, before it."""
        return ()

    def left(self, engine):
        """The record closed: settle what it held outside itself."""


class SpineRecord(GridRecord):
    """The member plan run once for every subscribed query."""

    __slots__ = ("needs_backfill",)

    def __init__(self, key, plan, t0):
        super().__init__(key, plan, t0)
        # Set when this spine joins a stage whose retained panes its
        # next window still covers; the demux injects them once.
        self.needs_backfill = False

    def last_needed_epoch(self):
        """Last grid epoch any subscriber still needs, or None if one
        is unbounded (no LIFETIME)."""
        last = 0
        for sub in self.subscribers.values():
            if sub.last_epoch is None:
                return None
            last = max(last, sub.offset + sub.last_epoch)
        return last

    def rep_qid(self):
        """A live subscriber's qid for plan-pull provenance (any will
        do -- all subscribers carry byte-identical plans)."""
        for qid in self.subscribers:
            return qid
        return None

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

    def last_needed_epoch(self):
        """The latest of the members' horizons (None = unbounded)."""
        horizons = [m.last_needed_epoch() for m in self.subscribers.values()]
        return None if None in horizons else max(horizons, default=0)

    def build(self, engine, k, t_k):
        execution = StandingExecution(
            engine, self.plan, "p|" + self.key, k, t_k, engine.address
        )
        # The demux reads the member map through the record; parked
        # before start() so the initial scan wave fans.
        execution.ctx.stage = self
        return execution

    def demux(self):
        return self.execution.ops["stage_demux"]
