"""EpochExecution wiring and lifecycle, and the epoch scope every
delivery and flush runs in (unit level, real engines)."""

from types import SimpleNamespace

import pytest
from stubs import StubCtx

from repro.core.network import PierNetwork
from repro.util.errors import PlanError


@pytest.fixture
def net():
    n = PierNetwork(nodes=4, seed=910)
    n.create_local_table("t", [("v", "INT")])
    n.insert("node0", "t", [(1,), (2,)])
    return n


class TestWiring:
    def test_instantiates_all_ops(self, net):
        plan = net.compile_sql("SELECT v FROM t WHERE v > 1")
        handle = net.submit_plan(plan)
        net.advance(0.5)
        execution = net.node("node0").engine.queries[handle.qid].execution
        assert set(execution.ops) == set(plan.specs)

    def test_consumers_wired_per_plan(self, net):
        plan = net.compile_sql("SELECT v FROM t WHERE v > 1")
        handle = net.submit_plan(plan)
        net.advance(0.5)
        execution = net.node("node0").engine.queries[handle.qid].execution
        for op_id, spec in plan.specs.items():
            produced_to = [
                (c_id, port) for c_id, port in plan.consumers_of(op_id)
            ]
            op = execution.ops[op_id]
            wired = [
                (consumer.spec.op_id, port) for consumer, port in op.consumers
            ]
            assert sorted(wired) == sorted(produced_to)

    def test_exchange_must_have_single_consumer(self, net):
        from repro.core.opgraph import OpSpec, QueryPlan
        from repro.core.dataflow import EpochExecution

        specs = [
            OpSpec("scan", "scan", {"table": "t"}),
            OpSpec("ex", "exchange", {
                "mode": "rehash",
                "key": {"kind": "row"},
            }, ["scan"]),
            OpSpec("d1", "distinct", {}, ["ex"]),
            OpSpec("d2", "distinct", {}, ["ex"]),
            OpSpec("res", "result", {}, ["d1"]),
        ]
        plan = QueryPlan(specs, "res")
        engine = net.node("node0").engine
        with pytest.raises(PlanError):
            EpochExecution(engine, plan, "qx", 0, net.now, "node0").start()


class TestLifecycle:
    def test_close_cancels_flush_timers(self, net):
        plan = net.compile_sql("SELECT SUM(v) AS s FROM t")
        handle = net.submit_plan(plan)
        net.advance(0.5)
        execution = net.node("node1").engine.queries[handle.qid].execution
        assert execution._flush_timers
        execution.close()
        assert execution.closed
        assert not execution._flush_timers
        # Deliveries after close are ignored, not errors.
        execution.deliver_batch(plan.root_id, 0, [(1,)])

    def test_double_close_is_noop(self, net):
        plan = net.compile_sql("SELECT v FROM t")
        handle = net.submit_plan(plan)
        net.advance(0.5)
        execution = net.node("node0").engine.queries[handle.qid].execution
        execution.close()
        execution.close()

    def test_namespaces_unregistered_on_close(self, net):
        plan = net.compile_sql("SELECT SUM(v) AS s FROM t")
        handle = net.submit_plan(plan)
        net.advance(0.5)
        engine = net.node("node2").engine
        execution = engine.queries[handle.qid].execution
        assert engine._inputs  # exchange input registered
        execution.close()
        assert not engine._inputs

    def test_unclaimed_rows_buffered_then_drained(self, net):
        # Simulate a row arriving before the plan: the engine buffers it
        # under the namespace and hands it over at registration.
        engine = net.node("node0").engine
        engine._on_unclaimed_delivery(
            {"ns": "q|fake|0|op9|0", "data": (42,)}, None
        )
        assert engine._undelivered["q|fake|0|op9|0"][1] == [(42,)]

        class FakeExecution:
            plan = SimpleNamespace(standing=False)
            delivered = []

            def deliver_batch(self, op_id, port, rows, epoch, pane):
                self.delivered.extend((op_id, port, row) for row in rows)

        fake = FakeExecution()
        engine.register_exchange_input("q|fake|0|op9|0", fake, "op9", 0)
        assert fake.delivered == [("op9", 0, (42,))]
        engine.unregister_exchange_input("q|fake|0|op9|0")

    def test_registration_with_nothing_buffered_calls_no_operator(self, net):
        engine = net.node("node0").engine

        class FakeExecution:
            plan = SimpleNamespace(standing=False)
            calls = 0

            def deliver_batch(self, op_id, port, rows, epoch, pane):
                self.calls += 1

        fake = FakeExecution()
        engine.register_exchange_input("q|fake|0|op9|0", fake, "op9", 0)
        assert fake.calls == 0
        engine.unregister_exchange_input("q|fake|0|op9|0")

    def test_standing_replay_batches_runs_of_equal_tags(self, net):
        # Early rows replay as one delivery per run of consecutive rows
        # with equal (epoch, pane) tags, arrival order preserved.
        engine = net.node("node0").engine
        ns = "q|fake|op9|0"
        for epoch, data in [(1, (10,)), (1, (11,)), (2, (20,))]:
            engine._on_unclaimed_delivery(
                {"ns": ns, "data": data, "epoch": epoch}, None
            )

        class FakeExecution:
            plan = SimpleNamespace(standing=True)
            delivered = []

            def deliver_batch(self, op_id, port, rows, epoch, pane):
                self.delivered.append((list(rows), epoch, pane))

            def flush_input(self, op_id, epoch):
                pass

        fake = FakeExecution()
        engine.register_exchange_input(ns, fake, "op9", 0)
        assert fake.delivered == [
            ([(10,), (11,)], 1, None),
            ([(20,)], 2, None),
        ]
        engine.unregister_exchange_input(ns)

    STANDING = "SELECT SUM(v) AS n FROM s EVERY 5 SECONDS"

    @pytest.mark.parametrize("sql, options, ns, upcall", [
        # A broadcast one-shot keeps its one epoch in the head.
        ("SELECT SUM(v) AS n FROM t", None,
         "q|node0#1|0|opX|1", "t|node0#1|0|opX|1"),
        (STANDING, {"shared": False}, "q|node0#1|opX|1", "t|node0#1|opX|1"),
        # A spine's key is its share signature @ its phase in ms.
        (STANDING, None, "s|{sig}@1000|opX|1", "ts|{sig}@1000|opX|1"),
        # Site-run: every scan a keyed get.
        ("SELECT v FROM d WHERE k = 7", None,
         "q|node0#1|0|opX|1", "t|node0#1|0|opX|1"),
    ], ids=["broadcast", "private_standing", "spine", "site"])
    def test_context_namespace_format(self, net, sql, options, ns, upcall):
        # Namespaces are hashed into routing ids: a drift moves owners.
        net.create_stream_table("s", [("v", "INT")], window=10.0)
        net.create_dht_table("d", [("k", "INT"), ("v", "INT")],
                             partition_key="k")
        handle = net.submit_sql(sql, node="node0", options=options)
        net.advance(6.0 if handle.plan.standing else 0.5)
        execution = handle.execution or net.node(
            "node0").engine.queries[handle.qid].execution
        sig = handle.plan.metadata.get("spine")
        ctx = execution.ctx
        assert ctx.namespace("opX", 1) == ns.format(sig=sig)
        assert ctx.upcall_name("opX", 1) == upcall.format(sig=sig)


class TestEpochScope:
    def test_nesting_and_an_exception_both_restore_the_epoch(self):
        ctx = StubCtx(standing=True)
        ctx.active_epoch = 3
        with ctx.in_epoch(5):
            assert ctx.active_epoch == 5
            with ctx.in_epoch(4):
                assert ctx.active_epoch == 4
            assert ctx.active_epoch == 5
        assert ctx.active_epoch == 3
        with pytest.raises(KeyError):
            with ctx.in_epoch(7):
                with ctx.in_epoch(8):
                    raise KeyError("inner")
        assert ctx.active_epoch == 3
