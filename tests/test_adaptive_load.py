"""Adaptive load management at run time: the elastic epoch ring,
rate-sized exchange flush windows, owner backpressure, hot-group
splitting, and the simulator's receive-side service queue."""

import pytest
from stubs import make_engine, make_exchange, make_standing

from repro.core import dataflow, engine as engine_module
from repro.core import exchange as exchange_module
from repro.core.dataflow import EpochStateRing, Operator
from repro.core.network import PierConfig, PierNetwork
from repro.core.engine import EngineConfig
from repro.core.operators import register_operator
from repro.core.opgraph import OpSpec, QueryPlan
from repro.dht.messages import Route, parts_of
from repro.sim.clock import SimClock
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import SimNode


# ----------------------------------------------------------------------
# Adaptive epoch ring
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
        flush_offsets={"p": 2.0}, standing=True,
        epoch_overlap=planned_width,
    )
    engine = make_engine()
    return engine, make_standing(engine, plan)


def advance(engine, execution, k):
    engine.clock.run_until(k * 5.0)
    execution.advance_epoch(k, k * 5.0)


class TestAdaptiveRing:
    def test_late_drop_widens_at_the_next_boundary(self):
        engine, execution = make_execution(planned_width=2)
        for k in (1, 2, 3):
            advance(engine, execution, k)
        assert execution.live_epochs == 2
        # Epoch 1 is sealed by now: a late un-paned batch drops...
        execution.deliver_batch("p", 0, [(1,)], epoch=1)
        assert execution.late_drops == 1
        assert engine.ring_late_drops == 1
        # ...and the next boundary widens the ring by one.
        advance(engine, execution, 4)
        assert execution.live_epochs == 3
        assert engine.ring_widenings == 1

    def test_quiet_boundaries_narrow_back_to_the_planned_floor(self):
        engine, execution = make_execution(planned_width=2)
        for k in (1, 2, 3):
            advance(engine, execution, k)
        execution.deliver_batch("p", 0, [(1,)], epoch=1)  # drop -> widen
        advance(engine, execution, 4)
        execution.deliver_batch("p", 0, [(1,)], epoch=1)  # drop -> widen
        advance(engine, execution, 5)
        assert execution.live_epochs == 4
        # RING_QUIET_BOUNDARIES = 4: each narrow step takes a
        # quiet run; the width decays back to the planned 2, no lower.
        for k in range(6, 30):
            advance(engine, execution, k)
        assert execution.live_epochs == 2
        assert execution._ring_floor == 2

    def test_stale_deliveries_hold_the_widened_ring_open(self):
        engine, execution = make_execution(planned_width=2)
        for k in (1, 2, 3):
            advance(engine, execution, k)
        execution.deliver_batch("p", 0, [(1,)], epoch=1)  # widen to 3
        for k in range(4, 30):
            advance(engine, execution, k)
            # Every boundary, rows arrive for the oldest *open* epoch:
            # staleness live_epochs-1 keeps needing the extra width.
            execution.deliver_batch("p", 0, [(9,)],
                                    epoch=min(execution._open_epochs))
        assert execution.live_epochs == 3

    def test_ring_max_overlap_caps_widening(self, monkeypatch):
        monkeypatch.setattr(dataflow, "RING_MAX_OVERLAP", 3)
        engine, execution = make_execution(planned_width=2)
        for k in range(1, 10):
            advance(engine, execution, k)
            sealed = execution._sealed_through
            if sealed >= 0:
                execution.deliver_batch("p", 0, [(1,)], epoch=sealed)
        assert execution.live_epochs == 3

    def test_planned_width_over_engine_cap_is_clamped(self, monkeypatch):
        monkeypatch.setattr(dataflow, "RING_MAX_OVERLAP", 4)
        engine, execution = make_execution(planned_width=40)
        assert execution.live_epochs == 4
        assert execution._ring_floor == 4


# ----------------------------------------------------------------------
# Adaptive exchange flush windows
# ----------------------------------------------------------------------
class TestAdaptiveFlush:
    def test_static_config_returns_the_configured_trio(self):
        config = EngineConfig(max_batch_rows=64)
        exchange = make_exchange(make_engine(config))
        assert exchange._flush_plan() == (0.25, 64, 8192)

    def test_sparse_edge_stretches_the_window_to_fill_batches(self):
        config = EngineConfig(adaptive_flush=True, max_batch_rows=64)
        exchange = make_exchange(make_engine(config))
        exchange._rate = 10.0  # rows/sec: 64-row batches want 6.4s
        delay, max_rows, _ = exchange._flush_plan()
        assert delay == 0.25 * 8.0  # clamped at the 8x stretch
        assert max_rows == 64  # caps untouched on the sparse side

    def test_hot_edge_raises_caps_to_one_window(self):
        config = EngineConfig(adaptive_flush=True, max_batch_rows=64)
        exchange = make_exchange(make_engine(config))
        exchange._rate = 4000.0  # 1000 rows per base window
        delay, max_rows, max_bytes = exchange._flush_plan()
        assert delay == 0.25  # hot edges keep the base cadence
        assert max_rows == 1000
        assert max_bytes > 8192

    def test_adaptive_caps_clamp_at_the_ceiling(self, monkeypatch):
        monkeypatch.setattr(exchange_module, "ADAPTIVE_FLUSH_MAX_ROWS", 512)
        config = EngineConfig(adaptive_flush=True, max_batch_rows=64)
        exchange = make_exchange(make_engine(config))
        exchange._rate = 100000.0
        _delay, max_rows, _ = exchange._flush_plan()
        assert max_rows == 512

    def test_rate_ewma_tracks_pushed_rows(self):
        config = EngineConfig(adaptive_flush=True)
        engine = make_engine(config)
        exchange = make_exchange(engine)
        for i in range(30):
            engine.clock.run_until(i * 0.1)
            exchange._note_arrivals(10)  # 100 rows/sec
        assert exchange._rate == pytest.approx(100.0, rel=0.2)

    def test_backpressure_stretch_multiplies_everything(self):
        config = EngineConfig(max_batch_rows=64)
        engine = make_engine(config)
        exchange = make_exchange(engine)
        engine._on_direct({"op": "xbp", "ns": exchange._ns, "factor": 4.0,
                           "ttl": 10.0}, src="owner")
        delay, max_rows, max_bytes = exchange._flush_plan()
        assert delay == 1.0
        assert max_rows == 256 and max_bytes == 32768


# ----------------------------------------------------------------------
# Owner backpressure end to end
# ----------------------------------------------------------------------
class TestBackpressure:
    @pytest.fixture(autouse=True)
    def small_line(self, monkeypatch):
        monkeypatch.setattr(engine_module, "BACKPRESSURE_ROWS_PER_SEC", 100.0)
        monkeypatch.setattr(engine_module, "BACKPRESSURE_TTL", 3.0)

    def make_net(self):
        config = PierConfig(engine=EngineConfig(adaptive_flush=True))
        return PierNetwork(nodes=4, seed=13, config=config)

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
            standing = True

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
# Hot-group splitting
# ----------------------------------------------------------------------
class TestHotGroupSplit:
    @pytest.fixture
    def two_shards(self, monkeypatch):
        monkeypatch.setattr(exchange_module, "HOT_GROUP_SHARDS", 2)
        return EngineConfig(max_batch_rows=1, hot_group_threshold=5)

    def test_hot_key_shards_after_the_threshold(self, two_shards):
        engine = make_engine(two_shards)
        exchange = make_exchange(engine, key={"kind": "group"})
        for i in range(20):
            exchange.push((("g",), (float(i),)))
        rids = [p["rid"] for _key, p in engine.dht.routed]
        assert rids[:5] == [("g",)] * 5  # under threshold: untouched
        sharded = rids[5:]
        assert all(r[0] == "hot" and r[1] == ("g",) for r in sharded)
        assert {r[2] for r in sharded} == {0, 1}
        assert exchange.hot_splits == 15

    def test_cold_keys_never_shard(self, two_shards):
        engine = make_engine(two_shards)
        exchange = make_exchange(engine, key={"kind": "group"})
        for g in range(10):  # ten groups, one row each
            exchange.push((("g{}".format(g),), (1.0,)))
        assert all(p["rid"][0].startswith("g")
                   for _key, p in engine.dht.routed)
        assert exchange.hot_splits == 0

    def test_counts_reset_per_epoch(self, two_shards):
        exchange = make_exchange(make_engine(two_shards),
                                 key={"kind": "group"})
        for i in range(5):
            exchange.push((("g",), (1.0,)))
        exchange.seal_epoch(3)
        assert exchange.hot_splits == 0  # sealed before crossing

    def test_split_answers_match_the_unsplit_run(self, monkeypatch):
        """Integration parity: a skewed grouped aggregate under
        hot-group splitting answers exactly what the unsplit run
        answers -- the coordinator's duplicate-owner merge re-unifies
        the shards.

        The query slides WINDOW 6 over EVERY 5, so the plan is paned
        at the 1s gcd pane and the group-partial edge ships one delta
        row per (pane, group): the hot group crosses the threshold
        within every epoch. (A tumbling or unpaned plan ships a single
        partial per group per epoch, so splitting never engages and
        the parity check would be vacuous.)"""
        monkeypatch.setattr(exchange_module, "HOT_GROUP_SHARDS", 3)

        def run(threshold):
            engine = EngineConfig(hot_group_threshold=threshold)
            net = PierNetwork(nodes=6, seed=21,
                              config=PierConfig(engine=engine))
            net.create_stream_table(
                "s", [("k", "INT"), ("v", "FLOAT")], window=30.0)
            def install(address, i):
                def tick():
                    eng = net.node(address).engine
                    # Heavy skew: most rows land in group 0.
                    k = 0 if (i + int(eng.clock.now * 4)) % 8 else 1
                    eng.stream_append("s", (k, float(i + 1)))
                    eng.set_timer(0.25, tick)
                net.node(address).engine.set_timer(0.1, tick)

            for i, address in enumerate(net.addresses()):
                install(address, i)
            results = []
            handle = net.submit_sql(
                "SELECT k, SUM(v) AS total, COUNT(*) AS n FROM s "
                "GROUP BY k EVERY 5 SECONDS WINDOW 6 SECONDS "
                "LIFETIME 20 SECONDS",
                on_epoch=results.append)
            hot = [0]

            def deliver(src, dst, wire):
                for part in parts_of(wire):
                    inner = getattr(part, "payload", None)
                    if isinstance(inner, dict):
                        rid = inner.get("rid")
                        if isinstance(rid, tuple) and rid and rid[0] == "hot":
                            hot[0] += 1

            net.net.on_deliver = deliver
            net.advance(20 + handle.plan.deadline + 3)
            return {r.epoch: sorted(r.rows) for r in results}, hot[0]

        unsplit, unsplit_hot = run(0)
        split, split_hot = run(4)
        assert unsplit_hot == 0
        assert split_hot > 0, "splitting never engaged: parity is vacuous"
        shared = set(unsplit) & set(split)
        assert len(shared) >= 3
        for epoch in shared:
            assert split[epoch] == unsplit[epoch], epoch


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
