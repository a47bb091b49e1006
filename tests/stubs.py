"""A network-free harness for ``Exchange`` / ``StandingExecution`` tests.

Everything above the DHT is the real thing -- ``EngineConfig``,
``PierEngine``, ``LocalQueryContext``, the operators -- so a unit test
drives exactly the code a deployed node runs, and product code never
has to tolerate a half-built stub. The one fake is the DHT:
:class:`RecordingDht` offers, under the same names, the ``ChordNode``
methods the engine calls, with no overlay behind them, and records what
would have gone on the wire. Timers run on a
real ``SimClock``; advance it with ``engine.clock.run_until(t)``.
Operator unit tests get their context from :class:`StubCtx`, the one
definition of "a query context with nothing behind it";
:class:`PanedGroupBy` is a paned group-by's two halves on one.
:func:`live_stream_scans` is the one probe for "who reads this table".
"""

from repro.core.batch import RowBatch
from repro.core.dataflow import LocalQueryContext, StandingExecution
from repro.core.engine import PierEngine
from repro.core.exchange import Exchange
from repro.core.operators import create_operator
from repro.core.operators.scan import Scan
from repro.core.opgraph import OpSpec, QueryPlan
from repro.db.catalog import Catalog
from repro.sim.clock import SimClock


class RecordingDht:
    """The ``ChordNode`` methods the engine and its operators call."""

    def __init__(self, clock, routed=None, region=None):
        self.clock = clock
        self.address = "stub"
        self.region = region
        # (key, payload) per route / route_via / route_through, in order.
        self.routed = routed if routed is not None else []
        self.directs = []  # (destination address, payload)
        self.suspects = set()  # addresses is_suspect answers True for
        self.timers = 0  # set_timer calls
        self._mids = 0

    def set_timer(self, delay, callback, *args):
        self.timers += 1
        return self.clock.schedule(delay, callback, *args)

    def fresh_mid(self):
        self._mids += 1
        return (self.address, self._mids)

    def is_suspect(self, address):
        return address in self.suspects

    def route(self, key, payload, upcall=None):
        self.routed.append((key, payload))

    def route_via(self, owner, key, payload):
        self.routed.append((key, payload))

    def route_through(self, via, key, payload, upcall=None):
        self.routed.append((key, payload))

    def region_rendezvous(self, key, region=None):
        return None

    def send_direct(self, dst_address, payload):
        self.directs.append((dst_address, payload))

    def _ignore(self, *args):
        """Handler registrations: nothing ever arrives from the wire."""

    on_broadcast = on_direct = on_deliver = on_neighbor_digest = _ignore
    register_intercept = unregister_intercept = _ignore


def live_stream_scans(engine, table):
    """Standing scans that read ``engine``'s fragment of stream
    ``table``: one per shared stage or spine, one per private query,
    none once the last subscriber stopped. A stage-fed member's scan is
    passive (it relays the stage's waves) and does not count."""
    if engine.catalog.lookup(table).source != "stream":
        return 0
    return sum(
        isinstance(op, Scan) and op.spec.params["table"] == table
        and op.ctx.plan.standing and not op.ctx.prefix_fed
        for record in engine.records.values()
        if record.execution is not None and not record.execution.closed
        for op in record.execution.ops.values()
    )


def make_engine(config=None, routed=None, region=None):
    """A real ``PierEngine`` (default ``EngineConfig`` unless given) on
    a :class:`RecordingDht`; ``engine.dht.routed`` is what it shipped."""
    dht = RecordingDht(SimClock(), routed=routed, region=region)
    return PierEngine(dht, Catalog(), config)


class StubCtx(LocalQueryContext):
    """A real query context (one-op plan, query ``q``, epoch 0) on its
    own :func:`make_engine`, for operators built without an execution.

    Tests re-point ``epoch`` / ``active_epoch`` by hand where an
    execution would, and may swap ``dht`` or ``engine`` for a probe.
    """

    def __init__(self, standing=False):
        plan = QueryPlan(
            [OpSpec("x", "result")], "x",
            mode="continuous" if standing else "oneshot",
            every=5.0 if standing else None,
        )
        super().__init__(make_engine(), plan, "q", 0, 0.0, "site")


class PanedGroupBy:
    """A paned ``groupby_partial`` wired straight into its paned
    ``groupby_final`` on one standing :class:`StubCtx`: the partial's
    pane increments feed the final's pane store, as they would across a
    pane-tagged exchange, and the final assembles each epoch's window.

    Drive it like one operator: ``push`` rows with their pane, set
    ``ctx.epoch`` / ``ctx.active_epoch``, ``flush()`` (partial, then
    final); ``wire`` a sink to the final's output.
    """

    def __init__(self, agg_specs, schema, group_exprs, every, window):
        self.ctx = StubCtx(standing=True)
        geometry = {"width": 1.0, "every": every, "window": window}
        self.partial = create_operator(self.ctx, OpSpec(
            "partial", "groupby_partial", {
                "group_exprs": group_exprs, "agg_specs": agg_specs,
                "schema": schema, "paned": geometry,
            }))
        self.final = create_operator(self.ctx, OpSpec(
            "final", "groupby_final",
            {"agg_specs": agg_specs, "paned": geometry}))
        self.partial.wire(self.final, 0)

    def wire(self, consumer, port):
        self.final.wire(consumer, port)

    def push(self, row, pane):
        self.partial.push_batch(RowBatch(rows=[row], pane=pane))

    def flush(self):
        self.partial.flush()
        self.final.flush()


def make_exchange(engine, key=None, mode="rehash", standing=True, epoch=3,
                  paned=None):
    """A real ``Exchange`` in a real query context of ``engine``.

    The plan is ``x1 (exchange) -> sink``; only the exchange is
    instantiated, so rows it ships show up in ``engine.dht.routed`` and
    nowhere else.
    """
    params = {"mode": mode, "key": key or {"kind": "row"}}
    if paned is not None:
        params["paned"] = paned
    spec = OpSpec("x1", "exchange", params)
    plan = QueryPlan(
        [spec, OpSpec("sink", "result", inputs=["x1"])], "sink",
        mode="continuous" if standing else "oneshot",
        every=5.0 if standing else None,
    )
    ctx = LocalQueryContext(engine, plan, "q#1", epoch, 0.0, "site")
    return Exchange(ctx, spec)


def make_standing(engine, plan):
    """A started ``StandingExecution`` of ``plan`` at epoch 0, t0 = 0."""
    execution = StandingExecution(engine, plan, "q#1", 0, 0.0, "site")
    execution.start()
    return execution
