"""Outside-in layer trace: spans around each layer's entry points.

Nothing under ``src/`` changes. :meth:`Tracer.install` replaces the
public entry points of each layer with wrappers *as class attributes*,
before the testbed is built (engines and Chord nodes bind their
handlers in ``__init__``), and :meth:`Tracer.uninstall` puts the
originals back. A layer is named after its module.

A wrapper opens a span on entry and closes it on exit. Spans nest on a
stack, and a span's self time is its duration minus the time its child
spans cover, so the layers' self times add up to the traced wall time
exactly; what no span covers is ``bench.unattributed``. A run opens
about 10^7 spans, so each is folded into its layer's totals when it
closes instead of being stored. Counts are taken by the same wrappers,
at the boundary where the work happens.

Tracing costs time (``bench.trace_overhead``), which is why the
end-to-end metrics come from separate, untraced runs.
"""

import sys
from collections import Counter, defaultdict
from time import perf_counter

ROOT = "bench.unattributed"


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def _entry_points():
    """(layer, owner, attribute, units) for every wrapped entry point.

    ``units(args, result)`` is what one call handled -- rows, bytes --
    summed per ``layer.attribute`` beside the call count; None where
    the call count is the whole story.
    """
    from repro.core import dataflow, exchange
    from repro.core import operators  # noqa: F401 -- defines the subclasses
    from repro.core.aggregation_tree import TreeCombiner
    from repro.core.coordinator import Coordinator
    from repro.core.engine import PierEngine
    from repro.core.network import PierNetwork
    from repro.dht.chord import ChordNode
    from repro.sim.clock import SimClock
    from repro.sim.network import Network
    from repro.util import serde

    def methods(layer, owner, names, units=None):
        return [(layer, owner, name, units) for name in names
                if name in vars(owner)]

    points = []
    points += methods("sim.clock", SimClock, ["run_until", "schedule_at"])
    points += methods("sim.network", Network, ["send", "_deliver"])
    points += methods("dht", ChordNode, [
        "handle_message", "route", "route_via", "route_through", "put",
        "get", "renew", "lookup", "broadcast", "send_direct"])
    points += methods("core.planner", PierNetwork, ["compile_sql"])
    points += methods("core.engine", PierEngine, [
        "stream_append", "local_insert", "publish", "_on_broadcast",
        "_on_direct", "_on_unclaimed_delivery"])
    for cls in (dataflow._ExecutionBase, dataflow.EpochExecution,
                dataflow.StandingExecution):
        points += methods("core.dataflow", cls, [
            "start", "advance_epoch", "deliver", "deliver_batch",
            "deliver_scan", "close"])
    for cls in [dataflow.Operator, *_all_subclasses(dataflow.Operator)]:
        layer = ("core.exchange" if cls.__module__ == exchange.__name__
                 else "core.operators")
        points += methods(layer, cls, ["push_batch"],
                          lambda args, _r: len(args[1]))
        if cls is not dataflow.Operator:  # its other methods do nothing
            points += methods(layer, cls, ["push"], lambda _a, _r: 1)
            points += methods(layer, cls, ["flush", "seal_epoch"])
    points += methods("core.exchange", exchange.ExchangeMux,
                      ["route", "route_via", "_ship"])
    points += methods("core.exchange", TreeCombiner, ["handler"])
    points += methods("core.coordinator", Coordinator,
                      ["submit", "_close_epoch"])
    points += methods("core.coordinator", Coordinator, ["on_result"],
                      lambda args, _r: len(args[1]["rows"]))
    # wire_size recurses through its own module global, which stays as
    # it is; only the by-name imports other modules call it through are
    # wrapped, so one span covers one outermost call.
    for module in list(sys.modules.values()):
        if (module is not serde and module is not None
                and vars(module).get("wire_size") is serde.wire_size):
            points.append(("util.serde", module, "wire_size",
                           lambda _a, size: size))
    return points


class Tracer:
    """Per-layer self time and boundary counts for one measured phase."""

    def __init__(self):
        self.self_s = defaultdict(float)  # layer -> seconds
        self.calls = Counter()  # "layer.attribute" -> calls
        self.units = Counter()  # "layer.attribute" -> summed units
        self._patched = []  # (owner, attribute, original)
        self._stack = []
        self._layer = ROOT
        self._mark = 0.0
        self._on = False

    def wrap(self, layer, fn, name=None, units=None):
        """``fn`` with a span of ``layer`` around every call."""
        key = "{}.{}".format(layer, name or fn.__name__)
        self_s, calls, total, stack = (
            self.self_s, self.calls, self.units, self._stack)

        def traced(*args, **kwargs):
            if not self._on:
                return fn(*args, **kwargs)
            now = perf_counter()
            self_s[self._layer] += now - self._mark
            stack.append(self._layer)
            self._layer = layer
            self._mark = now
            calls[key] += 1
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    total[key] += units(args, result)
                return result
            finally:
                now = perf_counter()
                self_s[layer] += now - self._mark
                self._layer = stack.pop()
                self._mark = now

        return traced

    def install(self):
        for layer, owner, name, units in _entry_points():
            original = vars(owner)[name]
            self._patched.append((owner, name, original))
            setattr(owner, name, self.wrap(layer, original, name, units))
        return self

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def start(self):
        """Open the root span; call from outside any traced function."""
        self._on = True
        self._layer = ROOT
        self._mark = perf_counter()

    def stop(self):
        self.self_s[self._layer] += perf_counter() - self._mark
        self._on = False


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, delta):
    """Every ``per_layer`` metric of BENCHMARK.json but trace_overhead.

    ``delta`` is the measured phase's change in the counters the
    program already keeps (``run.snapshot``); the rest comes from the
    tracer's own call counts and unit sums.
    """
    self_s, calls, units = tracer.self_s, tracer.calls, tracer.units
    out = {layer + ".self_s": self_s[layer] for layer in (
        "sim.clock", "sim.network", "util.serde", "dht", "core.planner",
        "core.engine", "core.dataflow", "core.operators", "core.exchange",
        "core.coordinator", "bench.loadgen")}
    out["bench.unattributed_s"] = self_s[ROOT]

    scheduled = calls["sim.clock.schedule_at"]
    out["sim.clock.events"] = delta["events_fired"]
    # Scheduled but neither fired nor still waiting: cancelled.
    out["sim.clock.cancelled_events"] = (
        scheduled - delta["events_fired"] - delta["events_pending"])

    messages = delta.get("messages_sent", 0)
    out["sim.network.messages"] = messages
    out["sim.network.bytes"] = delta.get("bytes_sent", 0)

    out["util.serde.calls"] = calls["util.serde.wire_size"]
    out["util.serde.bytes_per_call"] = _ratio(
        units["util.serde.wire_size"], calls["util.serde.wire_size"])

    maintenance = (delta.get("messages_kind_rpc_req", 0)
                   + delta.get("messages_kind_rpc_rep", 0))
    routes = (calls["dht.route"] + calls["dht.route_via"]
              + calls["dht.route_through"])
    out["dht.maintenance_msgs"] = maintenance
    out["dht.maintenance_frac"] = _ratio(maintenance, messages)
    out["dht.route_msgs"] = delta.get("messages_kind_route", 0)
    out["dht.hops_per_route"] = _ratio(out["dht.route_msgs"], routes)
    out["dht.lookups"] = calls["dht.lookup"]
    out["dht.puts"] = calls["dht.put"]
    out["dht.gets"] = calls["dht.get"]
    out["dht.dropped_msgs"] = (
        delta.get("messages_to_dead_node", 0) + delta.get("messages_lost", 0)
        + delta.get("messages_partitioned", 0))

    compiles = calls["core.planner.compile_sql"]
    out["core.planner.compiles"] = compiles
    out["core.planner.ms_per_compile"] = _ratio(
        1000.0 * self_s["core.planner"], compiles)

    appended = calls["core.engine.stream_append"] + calls["core.engine.publish"]
    out["core.engine.rows_appended"] = appended
    out["core.engine.rows_scanned"] = delta["rows_scanned"]
    out["core.engine.scan_amplification"] = _ratio(
        delta["rows_scanned"], appended)

    out["core.dataflow.epochs_advanced"] = (
        calls["core.dataflow.advance_epoch"] + calls["core.dataflow.start"])
    out["core.dataflow.ring_late_drops"] = delta["ring_late_drops"]

    pushes = calls["core.operators.push"] + calls["core.operators.push_batch"]
    rows_in = units["core.operators.push"] + units["core.operators.push_batch"]
    out["core.operators.rows_in"] = rows_in
    out["core.operators.rows_per_call"] = _ratio(rows_in, pushes)
    out["core.operators.us_per_row"] = _ratio(
        1e6 * self_s["core.operators"], rows_in)

    out["core.exchange.messages"] = delta.get("exchange_messages", 0)
    out["core.exchange.rows"] = delta.get("exchange_rows", 0)
    out["core.exchange.bytes"] = delta.get("exchange_bytes", 0)
    out["core.exchange.rows_per_msg"] = _ratio(
        out["core.exchange.rows"], out["core.exchange.messages"])
    out["core.exchange.mux_bundles"] = delta.get("exchange_mux_bundles", 0)

    out["core.coordinator.epochs_closed"] = calls[
        "core.coordinator._close_epoch"]
    out["core.coordinator.rows_merged"] = units["core.coordinator.on_result"]
    return out
