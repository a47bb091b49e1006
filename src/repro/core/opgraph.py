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
"""

from repro.util.errors import PlanError


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
                 finishing=None, metadata=None, standing=False,
                 epoch_overlap=1, pane=None):
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
        # Finishing runs at the query site over collected rows:
        # {"order_by": [(expr, desc)], "limit": n} -- the final global
        # sort/cut that in-network operators can only approximate.
        self.finishing = finishing if finishing is not None else {}
        self.metadata = metadata if metadata is not None else {}
        # Standing plans run one long-lived execution per node whose
        # operators roll over via the open/seal epoch lifecycle instead
        # of being torn down and rebuilt. ``epoch_overlap`` is the
        # epoch ring width N: how many epoch states a standing
        # execution keeps live at once (the planner derives it as the
        # ceiling of the worst flush horizon over the period, transfer
        # margin included; 1 means epochs never overlap). ``pane`` is
        # the pane geometry ({"width", "every", "window"} -- width in
        # seconds, the others in panes) when the plan uses paned
        # sliding-window aggregation (WINDOW > EVERY over a pane-aware
        # operator chain); the same geometry rides on the marked op
        # specs. The planner decides all three.
        if standing and mode != "continuous":
            raise PlanError("only continuous plans can be standing")
        epoch_overlap = int(epoch_overlap)
        if epoch_overlap < 1:
            raise PlanError("epoch_overlap must be >= 1 live epoch")
        if epoch_overlap > 1 and not standing:
            raise PlanError("epoch_overlap requires a standing plan")
        self.standing = standing
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

    def describe(self):
        """Human-readable plan listing (for logs and EXPLAIN-style tests)."""
        lines = []
        for op_id in sorted(self.specs):
            spec = self.specs[op_id]
            inputs = " <- {}".format(spec.inputs) if spec.inputs else ""
            flush = ""
            if op_id in self.flush_offsets:
                flush = " flush@{:.1f}s".format(self.flush_offsets[op_id])
            tag = " [standing]" if spec.params.get("standing") else ""
            if spec.params.get("paned"):
                tag += " [paned]"
            lines.append("{}: {}{}{}{}".format(
                op_id, spec.kind, tag, inputs, flush))
        standing = ""
        if self.standing:
            standing = (
                " (standing, {} live epochs)".format(self.epoch_overlap)
                if self.epoch_overlap > 1 else " (standing)"
            )
        lines.append("root: {} mode: {}{} deadline: {:.1f}s".format(
            self.root_id, self.mode, standing, self.deadline))
        return "\n".join(lines)

    def __repr__(self):
        return "QueryPlan({} ops, mode={}, root={!r})".format(
            len(self.specs), self.mode, self.root_id
        )
