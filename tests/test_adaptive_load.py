"""Load management at run time: the standing epoch ring's planned
width and late drops, the exchange flush plan, owner backpressure, and
the simulator's receive-side service queue."""

import math
from types import SimpleNamespace

import pytest
from stubs import make_engine, make_exchange, make_standing

from repro.core import dataflow, engine as engine_module
from repro.core import exchange as exchange_module
from repro.core.batch import RowBatch
from repro.core.dataflow import EpochStateRing, Operator
from repro.core.exchange import payload_rows
from repro.core.network import PierNetwork
from repro.core.engine import EngineConfig
from repro.core.operators import register_operator
from repro.core.opgraph import OpSpec, QueryPlan
from repro.dht.messages import Route
from repro.sim.clock import SimClock
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import SimNode


# ----------------------------------------------------------------------
# Standing epoch ring
# ----------------------------------------------------------------------
@register_operator("load_probe")
class LoadProbe(Operator):
    """Minimal stateful probe for ring-width experiments."""

    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        self.ring = EpochStateRing(dict)
        self.pushed = []

    def open_epoch(self, k, t_k):
        self.ring.state(k)

    def seal_epoch(self, k):
        self.ring.seal(k)

    def push_batch(self, batch, port=0):
        self.pushed.extend(batch.rows())


def make_execution(planned_width=2):
    plan = QueryPlan(
        [OpSpec("p", "load_probe")], "p", mode="continuous", every=5.0,
        flush_offsets={"p": 2.0},
        epoch_overlap=planned_width,
    )
    engine = make_engine()
    return engine, make_standing(engine, plan)


def advance(engine, execution, k):
    engine.clock.run_until(k * 5.0)
    execution.advance_epoch(k, k * 5.0)


class TestRingWidth:
    def test_late_drops_leave_the_ring_at_its_planned_width(self):
        engine, execution = make_execution(planned_width=2)
        for k in (1, 2, 3):
            advance(engine, execution, k)
        drops = 0
        for k in range(4, 12):
            # Every boundary, a batch arrives for an epoch the ring
            # already sealed: it drops as late...
            sealed = min(execution._open_epochs) - 1
            execution.deliver_batch("p", 0, [(1,)], epoch=sealed)
            drops += 1
            assert engine.ring_late_drops == drops
            advance(engine, execution, k)
            # ...and the ring keeps exactly the planned two epochs.
            assert execution.live_epochs == 2
            assert sorted(execution._open_epochs) == [k - 1, k]
        assert execution.ops["p"].pushed == []

    def test_planned_width_over_engine_cap_is_clamped(self, monkeypatch):
        monkeypatch.setattr(dataflow, "RING_MAX_OVERLAP", 4)
        engine, execution = make_execution(planned_width=40)
        assert execution.live_epochs == 4

    def test_rows_for_every_open_epoch_still_land(self):
        engine, execution = make_execution(planned_width=3)
        for k in range(1, 6):
            advance(engine, execution, k)
        assert sorted(execution._open_epochs) == [3, 4, 5]
        # The oldest open epoch is stale but live: its rows land.
        for e in (3, 4, 5):
            execution.deliver_batch("p", 0, [(e,)], epoch=e)
        assert execution.ops["p"].pushed == [(3,), (4,), (5,)]
        assert engine.ring_late_drops == 0

    def test_width_one_keeps_only_the_current_epoch(self):
        engine, execution = make_execution(planned_width=1)
        assert not execution.overlap
        for k in range(1, 4):
            advance(engine, execution, k)
            assert sorted(execution._open_epochs) == [k]
        # The epoch just sealed by the rollover is already late.
        execution.deliver_batch("p", 0, [(1,)], epoch=2)
        assert engine.ring_late_drops == 1
        assert execution.ops["p"].pushed == []

    def test_rows_far_ahead_are_neither_parked_nor_counted(self):
        engine, execution = make_execution(planned_width=2)
        advance(engine, execution, 1)
        execution.deliver_batch("p", 0, [(3,)], epoch=3)  # parked
        execution.deliver_batch("p", 0, [(4,)], epoch=4)  # discarded
        assert sorted(execution._early) == [3]
        assert engine.ring_late_drops == 0
        for k in (2, 3, 4):
            advance(engine, execution, k)
        assert execution.ops["p"].pushed == [(3,)]


# ----------------------------------------------------------------------
# Exchange flush plan
# ----------------------------------------------------------------------
class TestFlushPlan:
    def test_static_config_returns_the_configured_trio(self):
        config = EngineConfig(max_batch_rows=64)
        exchange = make_exchange(make_engine(config))
        assert exchange._flush_plan() == (0.25, 64, 8192)

    @pytest.mark.parametrize("factor, want", [
        (4.0, (1.0, 256, 32768)),
        # 64 x 40 rows and 8192 x 40 bytes top both ceilings.
        (40.0, (10.0, exchange_module.BACKPRESSURE_MAX_ROWS,
                exchange_module.BACKPRESSURE_MAX_BYTES)),
    ])
    def test_backpressure_stretch_multiplies_everything(self, factor, want):
        config = EngineConfig(max_batch_rows=64)
        engine = make_engine(config)
        exchange = make_exchange(engine)
        engine._on_direct({"op": "xbp", "ns": exchange._ns, "factor": factor,
                           "ttl": 10.0}, src="owner")
        assert exchange._flush_plan() == want

    def test_a_factor_under_one_leaves_the_trio(self):
        config = EngineConfig(max_batch_rows=64)
        engine = make_engine(config)
        exchange = make_exchange(engine)
        engine._on_direct({"op": "xbp", "ns": exchange._ns, "factor": 0.5,
                           "ttl": 10.0}, src="owner")
        assert engine.exchange_flush_stretch(exchange._ns) == 1.0
        assert exchange._flush_plan() == (0.25, 64, 8192)

    def test_stretch_is_per_namespace(self):
        config = EngineConfig(max_batch_rows=64)
        engine = make_engine(config)
        exchange = make_exchange(engine)
        engine._on_direct({"op": "xbp", "ns": exchange._ns + "-other",
                           "factor": 4.0, "ttl": 10.0}, src="owner")
        assert exchange._flush_plan() == (0.25, 64, 8192)

    @pytest.mark.parametrize("factor, shipped_at_push", [
        (1.0, [64]),  # the base cap ships a full batch at once
        (4.0, []),  # a 256-row cap holds all 100 rows
    ])
    def test_push_ships_at_the_stretched_cap(self, factor, shipped_at_push):
        config = EngineConfig(max_batch_rows=64)
        engine = make_engine(config)
        exchange = make_exchange(engine, key={"kind": "group"})
        engine._on_direct({"op": "xbp", "ns": exchange._ns,
                           "factor": factor, "ttl": 30.0}, src="owner")
        exchange.push_batch(
            RowBatch(rows=[(("g",), (float(i),)) for i in range(100)]))

        def shipped():
            return [len(payload_rows(p)) for _key, p in engine.dht.routed]

        assert shipped() == shipped_at_push
        delay = exchange._flush_plan()[0]
        engine.clock.run_until(delay * 0.9)
        assert shipped() == shipped_at_push
        engine.clock.run_until(delay)
        assert sum(shipped()) == 100

    def test_a_hot_group_keeps_one_routing_id(self):
        # No group is ever sharded: every row of a hot group goes to
        # the group's own owner, whatever the group's share of the rows.
        engine = make_engine(EngineConfig(max_batch_rows=1))
        exchange = make_exchange(engine, key={"kind": "group"})
        for i in range(50):
            exchange.push((("g",), (float(i),)))
        exchange.push((("h",), (1.0,)))
        rids = [p["rid"] for _key, p in engine.dht.routed]
        assert rids == [("g",)] * 50 + [("h",)]


# ----------------------------------------------------------------------
# Owner backpressure end to end
# ----------------------------------------------------------------------
class TestBackpressure:
    @pytest.fixture(autouse=True)
    def small_line(self, monkeypatch):
        monkeypatch.setattr(engine_module, "BACKPRESSURE_ROWS_PER_SEC", 100.0)
        monkeypatch.setattr(engine_module, "BACKPRESSURE_TTL", 3.0)

    def make_net(self):
        return PierNetwork(nodes=4, seed=13)

    def test_overloaded_owner_sends_xbp_and_origin_stretches(self):
        net = self.make_net()
        owner = net.node(net.addresses()[0]).engine
        origin_addr = net.addresses()[1]
        origin = net.node(origin_addr).engine
        ns = "q|demo#1|op9|0"
        # Simulate a hot second of inbound rows from one origin, then
        # the window rollover that evaluates it.
        owner._note_exchange_inflow(ns, 500, origin_addr)
        net.advance(1.1)
        owner._note_exchange_inflow(ns, 1, origin_addr)
        net.advance(0.5)  # let the xbp direct message deliver
        stretch = origin.exchange_flush_stretch(ns)
        assert stretch > 1.0
        assert stretch <= engine_module.BACKPRESSURE_FACTOR

    def test_noderef_origin_reaches_the_wire(self):
        # A delivered route message names its origin by NodeRef; the
        # registered delivery notes the inflow under the ref's address,
        # which is what the xbp's dht.send_direct needs to land.
        net = self.make_net()
        owner = net.node(net.addresses()[0]).engine
        origin = net.node(net.addresses()[1]).engine
        ns = "q|demo#1|op9|0"

        class Standing:
            plan = SimpleNamespace(standing=True)

            def deliver_batch(self, op_id, port, rows, epoch, pane):
                pass

        owner.register_exchange_input(ns, Standing(), "op9", 0)
        deliver = owner._inputs[ns]
        deliver({"ns": ns, "rows": [(0,)] * 500, "epoch": 1},
                Route("k", None, origin.dht.ref))
        net.advance(1.1)
        deliver({"ns": ns, "data": (0,), "epoch": 1},
                Route("k", None, origin.dht.ref))
        net.advance(0.5)
        assert origin.exchange_flush_stretch(ns) > 1.0
        owner.unregister_exchange_input(ns)

    def test_stretch_expires_with_the_ttl(self):
        net = self.make_net()
        origin = net.node(net.addresses()[1]).engine
        origin._bp_stretch["ns1"] = (4.0, net.now + 2.0)
        assert origin.exchange_flush_stretch("ns1") == 4.0
        net.advance(2.5)
        assert origin.exchange_flush_stretch("ns1") == 1.0
        assert "ns1" not in origin._bp_stretch  # expired entries drop

    def test_factors_do_not_stack_largest_wins(self):
        net = self.make_net()
        engine = net.node(net.addresses()[1]).engine
        engine._on_direct({"op": "xbp", "ns": "n", "factor": 4.0,
                           "ttl": 10.0}, src="peer")
        engine._on_direct({"op": "xbp", "ns": "n", "factor": 2.0,
                           "ttl": 10.0}, src="peer")
        assert engine.exchange_flush_stretch("n") == 4.0

    def test_resend_rate_limited_to_one_per_ttl(self):
        net = self.make_net()
        owner = net.node(net.addresses()[0]).engine
        origin_addr = net.addresses()[1]
        sent = []
        owner.dht.send_direct = lambda addr, payload: sent.append(payload)
        ns = "q|demo#1|op9|0"
        for i in range(6):  # six hot one-second windows back to back
            owner._note_exchange_inflow(ns, 500, origin_addr)
            net.advance(1.01)
        xbp = [p for p in sent if p.get("op") == "xbp"]
        # ~6 seconds of overload at a 3-second TTL: at most 2 sends.
        assert 1 <= len(xbp) <= 2

    def test_xbp_goes_out_in_address_order(self):
        # The send order decides every latency draw after it, so it must
        # not follow the string hash seed of a set of origins.
        net = self.make_net()
        owner = net.node(net.addresses()[0]).engine
        sent = []
        owner.dht.send_direct = lambda addr, payload: sent.append(addr)
        ns = "q|demo#1|op9|0"
        for origin in ("node3", "node1", "zeta", "node2", "alpha"):
            owner._note_exchange_inflow(ns, 200, origin)
        net.advance(1.01)
        owner._note_exchange_inflow(ns, 1, "node1")
        assert sent == ["alpha", "node1", "node2", "node3", "zeta"]

    def hot_delivery(self):
        """Owner of a standing namespace, its origin, and the owner's
        ``send_direct`` log after a second of 500 rows from the origin."""
        net = self.make_net()
        owner = net.node(net.addresses()[0]).engine
        origin = net.node(net.addresses()[1]).engine
        sent = []
        owner.dht.send_direct = lambda addr, payload: sent.append(payload)
        ns = "q|demo#1|op9|0"

        class Standing:
            plan = SimpleNamespace(standing=True)

            def deliver_batch(self, op_id, port, rows, epoch, pane):
                pass

        owner.register_exchange_input(ns, Standing(), "op9", 0)
        deliver = owner._inputs[ns]
        deliver({"ns": ns, "rows": [(0,)] * 500, "epoch": 1},
                Route("k", None, origin.dht.ref))
        net.advance(1.1)
        deliver({"ns": ns, "data": (0,), "epoch": 1},
                Route("k", None, origin.dht.ref))
        return owner, sent

    def test_hot_delivery_sends_one_xbp(self):
        owner, sent = self.hot_delivery()
        xbp = [p for p in sent if p.get("op") == "xbp"]
        # 500 rows over the 1.1 s window at a 100 rows/s line.
        assert len(xbp) == 1
        assert xbp[0]["factor"] == pytest.approx(500 / 1.1 / 100.0)

    def test_an_infinite_line_sends_no_xbp(self, monkeypatch):
        # The admission bench's static reference leg sets the line to
        # infinity: the owner still counts its inflow but never asks an
        # origin to stretch.
        monkeypatch.setattr(engine_module, "BACKPRESSURE_ROWS_PER_SEC",
                            math.inf)
        owner, sent = self.hot_delivery()
        assert [p for p in sent if p.get("op") == "xbp"] == []
        assert owner._bp_sent == {}
        assert owner._bp_inflow["q|demo#1|op9|0"]["count"] == 1

    def test_a_window_under_the_line_sends_no_xbp(self):
        net = self.make_net()
        owner = net.node(net.addresses()[0]).engine
        sent = []
        owner.dht.send_direct = lambda addr, payload: sent.append(payload)
        ns = "q|demo#1|op9|0"
        owner._note_exchange_inflow(ns, 90, net.addresses()[1])  # 90/s
        net.advance(1.01)
        owner._note_exchange_inflow(ns, 1, net.addresses()[1])
        assert sent == []

    def test_an_owner_own_rows_draw_no_xbp(self):
        net = self.make_net()
        owner = net.node(net.addresses()[0]).engine
        sent = []
        owner.dht.send_direct = lambda addr, payload: sent.append(payload)
        ns = "q|demo#1|op9|0"
        owner._note_exchange_inflow(ns, 500, owner.address)
        net.advance(1.01)
        owner._note_exchange_inflow(ns, 1, owner.address)
        assert sent == []

    def test_crash_resets_backpressure_state(self):
        net = self.make_net()
        address = net.addresses()[1]
        engine = net.node(address).engine
        engine._bp_stretch["n"] = (4.0, net.now + 100.0)
        engine._bp_inflow["n"] = {"count": 5, "t0": net.now,
                                  "origins": set()}
        net.crash_node(address)
        assert engine._bp_stretch == {} and engine._bp_inflow == {}


# ----------------------------------------------------------------------
# Simulator service queue
# ----------------------------------------------------------------------
class _Sink(SimNode):
    def __init__(self, network, address):
        super().__init__(network, address)
        self.received = []

    def handle_message(self, src, payload):
        self.received.append((payload, self.clock.now))


class TestServiceQueue:
    def test_converging_messages_queue_behind_each_other(self):
        clock = SimClock()
        net = Network(clock, ConstantLatency(0.1),
                      config=NetworkConfig(service_time=0.5))
        sink = _Sink(net, "dst")
        _Sink(net, "src")
        for i in range(3):
            net.send("src", "dst", {"i": i})
        clock.run_until(10.0)
        times = [t for _p, t in sink.received]
        # Arrival at 0.1; service 0.5 apiece: done at 0.6, 1.1, 1.6.
        assert times == pytest.approx([0.6, 1.1, 1.6])
        assert net.counters.get("service_wait") == pytest.approx(
            0.5 + 1.0)

    def test_zero_service_time_is_the_classic_receiver(self):
        clock = SimClock()
        net = Network(clock, ConstantLatency(0.1))
        sink = _Sink(net, "dst")
        _Sink(net, "src")
        for i in range(3):
            net.send("src", "dst", {"i": i})
        clock.run_until(10.0)
        assert [t for _p, t in sink.received] == pytest.approx(
            [0.1, 0.1, 0.1])
        assert net.counters.get("service_wait") == 0

    def test_idle_receiver_pays_no_wait(self):
        clock = SimClock()
        net = Network(clock, ConstantLatency(0.1),
                      config=NetworkConfig(service_time=0.2))
        sink = _Sink(net, "dst")
        _Sink(net, "src")
        net.send("src", "dst", {"i": 0})
        clock.run_until(5.0)
        net.send("src", "dst", {"i": 1})
        clock.run_until(10.0)
        assert net.counters.get("service_wait") == 0
        assert [t for _p, t in sink.received] == pytest.approx(
            [0.3, 5.3])
