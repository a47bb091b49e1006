"""Operator graphs: PIER's "boxes and arrows" interface.

A :class:`QueryPlan` is a *description* -- serializable, immutable, and
identical on every node -- of a dataflow graph. The engine instantiates
it locally per epoch. Plans support trees, DAGs (an op may feed several
consumers) and, for recursive queries, cycles (a distinct op feeding an
exchange that eventually feeds it again).

Execution timing is part of the plan: PIER is a soft-state system, so
stateful operators flush on *deadlines* rather than waiting for a
distributed end-of-stream (which a 10,000-node network cannot agree
on). ``flush_offsets`` maps op ids to seconds-after-epoch-start, and
``deadline`` is when the query site stops listening. The planner spaces
offsets by network stage so a flush's output has time to traverse the
exchange that follows it.

So is the epoch grid: a continuous plan's epochs are EVERY apart, from
1 (epoch 0, the submission instant, reads nothing) to the last that
LIFETIME reaches; a one-shot or recursive plan has the one epoch 0. The
query site closes, and every engine runs, exactly these epochs.
"""

import math

from repro.util.errors import PlanError

TEARDOWN_SLACK = 2.0  # straggler grace past plan.deadline before teardown


class OpSpec:
    """One box: an operator id, kind, parameters, and input edges.

    ``inputs`` lists upstream op ids in port order (a join's port 0 is
    its left input). Parameters are kind-specific and may hold schemas
    and compiled-later expression trees; they must never be mutated
    after the plan is built.
    """

    def __init__(self, op_id, kind, params=None, inputs=()):
        self.op_id = op_id
        self.kind = kind
        self.params = params if params is not None else {}
        self.inputs = list(inputs)

    def __repr__(self):
        return "OpSpec({!r}, {!r}, inputs={})".format(self.op_id, self.kind, self.inputs)


class QueryPlan:
    """A complete, disseminable query description."""

    def __init__(self, specs, root_id, mode="oneshot", every=None, window=None,
                 lifetime=None, flush_offsets=None, deadline=10.0,
                 site_specs=(), metadata=None, epoch_overlap=1, pane=None):
        self.specs = {spec.op_id: spec for spec in specs}
        if len(self.specs) != len(specs):
            raise PlanError("duplicate op ids in plan")
        if root_id not in self.specs:
            raise PlanError("root op {!r} not in plan".format(root_id))
        if mode not in ("oneshot", "continuous", "recursive"):
            raise PlanError("unknown plan mode {!r}".format(mode))
        if mode == "continuous" and not every:
            raise PlanError("continuous plans need an epoch period")
        self.root_id = root_id
        self.mode = mode
        self.every = every  # epoch period (s) for continuous queries
        self.window = window  # how much stream history an epoch reads (s)
        self.lifetime = lifetime  # soft-state: engines stop after this (s)
        self.flush_offsets = flush_offsets if flush_offsets is not None else {}
        self.deadline = deadline  # query site closes an epoch at t0+deadline
        # The site fragment (:mod:`repro.core.site`), in chain order;
        # out of ``specs``, so no engine builds it and no byte ships it.
        self.site_specs = list(site_specs)
        self.metadata = metadata if metadata is not None else {}
        # ``epoch_overlap`` is the epoch ring width N: how many epoch
        # states a standing execution keeps live at once (the planner
        # derives it as the ceiling of the worst flush horizon over the
        # period, transfer margin included; 1 means epochs never
        # overlap). ``pane`` is the pane geometry ({"width", "every",
        # "window"} -- width in seconds, the others in panes) when the
        # plan uses paned sliding-window aggregation (WINDOW > EVERY
        # over a stream scan feeding a group-by); the same geometry rides on
        # the marked op specs. The planner decides both.
        epoch_overlap = int(epoch_overlap)
        if epoch_overlap < 1:
            raise PlanError("epoch_overlap must be >= 1 live epoch")
        if epoch_overlap > 1 and not self.standing:
            raise PlanError("epoch_overlap requires a standing plan")
        self.epoch_overlap = epoch_overlap
        self.pane = pane
        self._validate()

    def _validate(self):
        for spec in self.specs.values():
            for input_id in spec.inputs:
                if input_id not in self.specs:
                    raise PlanError(
                        "op {!r} reads unknown input {!r}".format(spec.op_id, input_id)
                    )

    def consumers_of(self, op_id):
        """Downstream edges: list of (consumer_op_id, port)."""
        out = []
        for spec in self.specs.values():
            for port, input_id in enumerate(spec.inputs):
                if input_id == op_id:
                    out.append((spec.op_id, port))
        return out

    def sources(self):
        """Ops with no inputs (scans)."""
        return [s for s in self.specs.values() if not s.inputs]

    def ops_of_kind(self, kind):
        return [s for s in self.specs.values() if s.kind == kind]

    @property
    def standing(self):
        """Every continuous plan is standing: one long-lived execution
        per node whose operators roll over via the open/seal epoch
        lifecycle instead of being torn down and rebuilt."""
        return self.mode == "continuous"

    @property
    def recursive(self):
        """Its one epoch may close early, at the fixpoint."""
        return self.mode == "recursive"

    @property
    def first_epoch(self):
        """The first epoch anyone reads."""
        return 1 if self.standing else 0

    @property
    def last_epoch(self):
        """The last epoch: the last grid instant LIFETIME reaches (None
        without LIFETIME), or 0 for a plan with one epoch. The one place
        LIFETIME / EVERY is rounded."""
        if not self.standing:
            return 0
        if self.lifetime is None:
            return None
        return int(self.lifetime / self.every + 1e-9)

    def t_k(self, origin, k):
        """The instant of epoch ``k`` on the grid from ``origin``."""
        return origin + k * self.every if self.standing else origin

    def epoch_at(self, origin, now):
        """The epoch in progress at ``now`` on the grid from ``origin``."""
        if not self.standing:
            return 0
        return int(max(0.0, now - origin) // self.every)

    def retire_instant(self, t0):
        """When every node is done with this plan submitted at ``t0``:
        its lifetime, the deadline and the straggler grace; for a
        one-shot or recursive plan, the deadline and the grace. A
        continuous plan without LIFETIME never retires (``math.inf``)."""
        if not self.standing:
            return t0 + self.deadline + TEARDOWN_SLACK
        if self.lifetime is None:
            return math.inf
        return t0 + self.lifetime + self.deadline + TEARDOWN_SLACK

    @property
    def at_site(self):
        """Does this plan run only at its query site? A one-shot plan
        whose every scan reads by keyed ``get`` (the planner's access
        path for partition-key-pinned scans) is never broadcast."""
        return self.mode == "oneshot" and all(
            "key" in s.params for s in self.sources())

    def describe(self):
        """Human-readable plan listing (for logs and EXPLAIN-style tests)."""
        lines = []
        for op_id in sorted(self.specs):
            spec = self.specs[op_id]
            inputs = " <- {}".format(spec.inputs) if spec.inputs else ""
            flush = ""
            if op_id in self.flush_offsets:
                flush = " flush@{:.1f}s".format(self.flush_offsets[op_id])
            # Standing scans subscribe to their sources once and push
            # per-epoch deltas; standing exchanges use epoch-free
            # namespaces with epoch-tagged batches.
            tag = ""
            if self.standing and spec.kind in ("scan", "exchange"):
                tag = " [standing]"
            if spec.params.get("paned"):
                tag += " [paned]"
            if spec.kind == "scan" and "key" in spec.params:
                tag += " [get {!r}]".format(spec.params["key"])
            lines.append("{}: {}{}{}{}".format(
                op_id, spec.kind, tag, inputs, flush))
        standing = ""
        if self.standing:
            standing = (
                " (standing, {} live epochs)".format(self.epoch_overlap)
                if self.epoch_overlap > 1 else " (standing)"
            )
        if self.site_specs:
            lines.append("site: " + " -> ".join(
                spec.kind for spec in self.site_specs))
        where = " at the query site" if self.at_site else ""
        lines.append("root: {} mode: {}{}{} deadline: {:.1f}s".format(
            self.root_id, self.mode, standing, where, self.deadline))
        return "\n".join(lines)

    def __repr__(self):
        return "QueryPlan({} ops, mode={}, root={!r})".format(
            len(self.specs), self.mode, self.root_id
        )
