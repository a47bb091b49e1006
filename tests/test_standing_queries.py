"""Standing continuous queries: long-lived executions, subscriptions,
epoch tags, stop tombstones, and the one adopt/run/forget lifecycle."""

import pytest
from stubs import live_stream_scans, make_engine, make_exchange

from repro.core.dataflow import EpochExecution, LocalQueryContext, Operator
from repro.core.engine import (
    STOP_TOMBSTONE_TTL,
    TEARDOWN_SLACK,
    EngineConfig,
)
from repro.core.exchange import epoch_route_ns
from repro.core.network import PierNetwork
from repro.core.operators.scan import Scan
from repro.core.opgraph import OpSpec, QueryPlan
from repro.core.sharing import SpineRecord
from repro.db.catalog import TableDef
from repro.db.schema import Schema
from repro.db.types import FLOAT
from repro.db.window import pane_index, pane_width, window_pane_range
from repro.dht.chord import STABILIZE_PERIOD, NodeRef, node_id_for, storage_key
from repro.util.errors import PlanError
from repro.util.rng import SeededRng


def install_ticker(net, address, value, period=2.0, table="s"):
    """Append ``value`` every ``period`` seconds at ``address``."""

    def tick():
        engine = net.node(address).engine
        engine.stream_append(table, (value,))
        engine.set_timer(period, tick)

    net.node(address).engine.set_timer(0.1, tick)


@pytest.fixture
def net():
    n = PierNetwork(nodes=8, seed=321)
    n.create_stream_table("s", [("v", "FLOAT")], window=30.0)
    for i, address in enumerate(n.addresses()):
        install_ticker(n, address, float(i + 1))
    return n


CONTINUOUS_SQL = (
    "SELECT SUM(v) AS total, COUNT(*) AS n FROM s EVERY 10 SECONDS "
    "WINDOW 4 SECONDS LIFETIME 40 SECONDS"
)


def plan_sync(handle):
    """A plan-sync leg carrying ``handle``'s plan, as a neighbour that
    believed this node lacked it would send it."""
    return {"op": "qsync", "plans": [{
        "qid": handle.qid, "plan": handle.plan, "t0": handle.t0,
        "origin": handle.coordinator.engine.address,
    }]}


def miss_stops(net, address):
    """Every copy of a stop broadcast is lost on its way to
    ``address``; other broadcasts still reach its engine."""
    chord = net.node(address).chord
    engine = net.node(address).engine
    chord._broadcast_handlers = [
        lambda payload, origin, depth: payload.get("ctl") == "stop"
        or engine._on_broadcast(payload, origin, depth)
    ]


class TestStandingLifecycle:
    def test_plan_marked_standing(self, net):
        plan = net.compile_sql(CONTINUOUS_SQL)
        assert plan.standing
        for spec in plan.ops_of_kind("scan") + plan.ops_of_kind("exchange"):
            assert spec.params.get("standing")
        # One-shot plans never are.
        assert not net.compile_sql("SELECT COUNT(*) AS n FROM s").standing

    def test_overlapping_flush_schedule_still_standing(self, net):
        # Flushes stretch past a 5s period but fit within two: the plan
        # stays standing with an epoch ring of two live states.
        plan = net.compile_sql(
            "SELECT SUM(v) AS total FROM s EVERY 5 SECONDS "
            "WINDOW 4 SECONDS LIFETIME 40 SECONDS"
        )
        assert plan.standing
        assert plan.epoch_overlap == 2
        # Within one period: one live epoch state.
        assert net.compile_sql(CONTINUOUS_SQL).epoch_overlap == 1

    def test_overlong_flush_schedule_widens_the_ring(self, net):
        # Flushes stretch past two 4s periods: the ring simply widens
        # to three live epoch states instead of falling back to the
        # disposable per-epoch path.
        plan = net.compile_sql(
            "SELECT SUM(v) AS total FROM s EVERY 4 SECONDS "
            "WINDOW 4 SECONDS LIFETIME 40 SECONDS"
        )
        assert plan.standing
        assert plan.epoch_overlap == 3

    def test_standing_option_is_refused(self, net):
        # The rebuild-per-epoch path is retired: every continuous plan
        # runs standing. The legacy ``standing`` option -- like any name
        # the planner does not read -- is refused, not silently hashed
        # into the share signature (which would drop the query off its
        # spine and change nothing else).
        with pytest.raises(PlanError, match="'standing'"):
            net.compile_sql(CONTINUOUS_SQL, options={"standing": False})
        with pytest.raises(PlanError, match="'agregation_tree'"):
            net.compile_sql(CONTINUOUS_SQL,
                            options={"agregation_tree": False})
        # ``shared`` is the option that still means something: it keeps
        # the query off the subscription spine (private execution).
        private = net.compile_sql(CONTINUOUS_SQL, options={"shared": False})
        assert private.standing
        assert private.metadata.get("spine") is None

    def test_one_execution_reused_across_epochs(self, net):
        handle = net.submit_sql(CONTINUOUS_SQL)
        net.advance(12)  # inside epoch 1
        engine = net.node(net.addresses()[3]).engine
        record = engine.queries[handle.qid]
        first = record.execution
        assert first is not None
        # The plan is shareable, so the execution lives on a spine; the
        # query reads through to the spine's one standing execution.
        assert isinstance(record.record, SpineRecord)
        assert record.record.execution is first
        net.advance(10)  # inside epoch 2
        assert engine.queries[handle.qid].execution is first
        assert record.record.execution is first

    def test_delivery_registered_once_per_query(self, net):
        handle = net.submit_sql(CONTINUOUS_SQL)
        net.advance(12)
        engine = net.node(net.addresses()[2]).engine
        spine_key = engine.queries[handle.qid].record.key
        chord = net.node(net.addresses()[2]).chord
        prefix = "s|{}|".format(spine_key)
        standing_ns = [
            ns for ns in chord._delivery_handlers if ns.startswith(prefix)
        ]
        assert standing_ns, "standing exchange input not registered"
        # Epoch-free namespace: no epoch component between the spine
        # key and the op id.
        for ns in standing_ns:
            parts = ns.split("|")
            assert parts[0] == "s" and parts[1] == spine_key
            assert not parts[2].isdigit()  # would be the epoch in rebuild
        handler_before = {ns: chord._delivery_handlers[ns] for ns in standing_ns}
        net.advance(10)  # next epoch: same registration must persist
        for ns, handler in handler_before.items():
            assert chord._delivery_handlers.get(ns) is handler

    def test_results_match_private_execution(self):
        # Same deterministic workload through the shared spine and a
        # ``shared: False`` private standing execution.
        per_path = []
        for shared in (True, False):
            n = PierNetwork(nodes=8, seed=321)
            n.create_stream_table("s", [("v", "FLOAT")], window=30.0)
            for i, address in enumerate(n.addresses()):
                install_ticker(n, address, float(i + 1))
            results = []
            options = None if shared else {"shared": False}
            handle = n.submit_sql(CONTINUOUS_SQL, on_epoch=results.append,
                                  options=options)
            assert (handle.plan.metadata.get("spine") is not None) == shared
            n.advance(60)
            per_path.append([
                (r.epoch, r.rows[0][1], round(r.rows[0][0], 6))
                for r in results
            ])
        assert per_path[0] == per_path[1]
        # And the values are the known ground truth: 8 tickers, window 4,
        # period 2 => 16 samples summing to 2 * (1 + ... + 8).
        for _epoch, count, total in per_path[0]:
            assert count == 16
            assert total == pytest.approx(2 * sum(range(1, 9)))

    def test_lifetime_closes_standing_execution(self, net):
        handle = net.submit_sql(CONTINUOUS_SQL)
        net.advance(60)
        for address in net.addresses():
            engine = net.node(address).engine
            assert handle.qid not in engine.queries
            assert not engine.records
            chord = net.node(address).chord
            assert not any(handle.qid in ns for ns in chord._delivery_handlers)

    def test_sync_during_final_epoch_is_not_readopted(self, net):
        # A plan sync can carry a plan to a node that already runs it
        # (the lists were compared before the broadcast got there).
        # Landing in the final epoch (t0+40..), it must find the query
        # still adopted and hit the duplicate guard instead of founding
        # a second standing execution over the same epoch-free
        # namespaces (which would double-count the final epoch).
        results = []
        handle = net.submit_sql(CONTINUOUS_SQL, on_epoch=results.append)
        net.advance(41)
        reached = []
        held = {}
        for address in net.addresses():
            engine = net.node(address).engine
            query = engine.queries[handle.qid]
            held[address] = (query, query.record, query.execution,
                             len(engine.records))
            adopt = engine._adopt_query
            engine._adopt_query = (
                lambda payload, adopt=adopt, address=address:
                (reached.append(address), adopt(payload))
            )
            engine._on_direct(plan_sync(handle), net.addresses()[0])
        assert reached == net.addresses()
        for address, (query, record, execution, records) in held.items():
            engine = net.node(address).engine
            assert engine.queries[handle.qid] is query
            assert query.record is record and query.execution is execution
            assert len(engine.records) == records
        net.advance(30)
        assert len(results) == 4
        for r in results:
            total, count = r.rows[0]
            assert count == 16
            assert total == pytest.approx(2 * sum(range(1, 9)))

    def test_stop_unsubscribes_append_hooks(self, net):
        handle = net.submit_sql(CONTINUOUS_SQL)
        net.advance(12)
        engine = net.node(net.addresses()[1]).engine
        assert live_stream_scans(engine, "s") == 1  # the standing scan
        handle.stop()
        net.advance(3)
        assert live_stream_scans(engine, "s") == 0


def final_groups(execution, op_id, epoch):
    """A groupby_final's held groups for one epoch (empty if none)."""
    entry = execution.ops[op_id]._epochs.peek(epoch)
    return dict(entry["groups"]) if entry else {}


class TestEpochTags:
    def test_late_epoch_rows_dropped(self, net):
        handle = net.submit_sql(CONTINUOUS_SQL)
        net.advance(22)  # inside epoch 2
        engine = net.node(net.addresses()[4]).engine
        execution = engine.queries[handle.qid].execution
        assert execution.current_epoch == 2
        op_id = next(
            spec.op_id for spec in handle.plan.ops_of_kind("groupby_final")
        )
        before = final_groups(execution, op_id, 2)
        execution.deliver_batch(op_id, 0, [((), (99.0,))], epoch=1)
        assert final_groups(execution, op_id, 2) == before  # late: dropped
        assert final_groups(execution, op_id, 1) == {}

    def test_early_epoch_rows_parked_until_advance(self, net):
        handle = net.submit_sql(CONTINUOUS_SQL)
        net.advance(12)
        engine = net.node(net.addresses()[4]).engine
        execution = engine.queries[handle.qid].execution
        op_id = next(
            spec.op_id for spec in handle.plan.ops_of_kind("groupby_final")
        )
        execution.deliver_batch(op_id, 0, [(("x",), (7.0, 1))], epoch=2)
        assert final_groups(execution, op_id, 2) == {}  # parked, not pushed
        net.advance(10)  # boundary: epoch 2 begins and drains the parking
        assert ("x",) in final_groups(execution, op_id, 2)


class TestChurn:
    def test_subscriber_crash_successor_serves_next_epoch(self):
        # A standing query over a DHT table: the storing node's standing
        # scan subscribed to newData. When it crashes, the publisher's
        # keep-alive re-put lands at the successor, whose own standing
        # subscription wakes for the handed-off key, so the next epoch's
        # answer still includes the row.
        net = PierNetwork(nodes=8, seed=77)
        net.create_dht_table("kv", [("k", "STR"), ("v", "INT")],
                             partition_key="k", ttl=12.0)
        net.publish("node2", "kv", ("alpha", 5), keep_alive=True)
        net.advance(2)
        owner = next(
            a for a in net.addresses() if net.node(a).chord.lscan("kv")
        )
        assert owner != "node2"  # key ownership is address-hash determined
        results = []
        handle = net.submit_sql(
            "SELECT COUNT(*) AS n FROM kv EVERY 10 SECONDS "
            "LIFETIME 60 SECONDS",
            node="node2", on_epoch=results.append,
        )
        assert handle.plan.standing
        net.advance(22)  # two full epochs with the original owner
        assert results and results[0].rows[0][0] == 1
        net.crash_node(owner)
        net.advance(40)
        counts = [r.rows[0][0] if r.rows else 0 for r in results]
        # The final epochs see the row again at its new home.
        assert counts[-1] == 1

    def test_late_joiner_delivers_from_next_boundary(self, net):
        victim = net.addresses()[5]
        net.crash_node(victim)
        results = []
        handle = net.submit_sql(
            "SELECT COUNT(*) AS n FROM s EVERY 10 SECONDS "
            "WINDOW 4 SECONDS LIFETIME 200 SECONDS",
            node=net.addresses()[0], on_epoch=results.append,
        )
        assert handle.plan.standing
        net.advance(15)
        net.recover_node(victim)
        install_ticker(net, victim, 99.0)
        net.advance(90)
        engine = net.node(victim).engine
        record = engine.queries[handle.qid]
        assert record.execution is not None
        counts = [r.rows[0][0] for r in results if r.rows]
        assert counts[0] == 14  # victim missing
        assert counts[-1] == 16  # victim's delta flows after adoption
        handle.stop()

    def test_crash_drops_standing_registrations(self, net):
        handle = net.submit_sql(CONTINUOUS_SQL)
        net.advance(12)
        victim = net.addresses()[6]
        assert net.node(victim).chord._delivery_handlers
        net.crash_node(victim)
        # Zombie handlers must not survive into the recovered node.
        assert not net.node(victim).chord._delivery_handlers
        assert not net.node(victim).chord._intercepts


class TestStopTombstone:
    def test_missed_stop_is_dropped_after_one_exchange(self, net):
        handle = net.submit_sql(CONTINUOUS_SQL)
        net.advance(12)
        deaf = net.addresses()[2]
        miss_stops(net, deaf)
        for address in net.addresses():
            net.node(address).chord._stabilizer.stop()  # probes by hand
        handle.stop()
        net.advance(3)
        engine = net.node(deaf).engine
        assert handle.qid in engine.queries  # the stop never got here
        syncs = []
        net.net.on_deliver = lambda src, dst, wire: (
            wire.kind == "direct" and wire.payload.get("op") == "qsync"
            and syncs.append((src, dst)))
        chord = net.node(deaf).chord
        chord._stabilize()  # one probe of its successor
        net.advance(2)
        assert handle.qid not in engine.queries
        assert handle.qid in engine._stop_tombstones
        assert not engine.records
        # The successor sent its lists, the deaf node its own back.
        successor = chord.successor.address
        assert syncs == [(successor, deaf), (deaf, successor)]

    def test_tombstoned_query_is_not_readopted(self, net):
        handle = net.submit_sql(
            CONTINUOUS_SQL.replace("LIFETIME 40", "LIFETIME 200"))
        net.advance(12)
        deaf = net.addresses()[2]
        miss_stops(net, deaf)
        handle.stop()
        net.advance(1)
        adopted = []
        for address in net.addresses():
            engine = net.node(address).engine
            join = engine._join_shared
            engine._join_shared = (
                lambda query, join=join, address=address:
                (adopted.append((address, query.qid)), join(query))
            )
        # A sync that left its sender before the stop reached it:
        stopped = net.node(net.addresses()[3]).engine
        stopped._on_direct(plan_sync(handle), deaf)
        # The deaf node keeps advertising the query to its neighbours,
        # which hold its tombstone, for three periods.
        net.advance(3 * STABILIZE_PERIOD)
        assert adopted == []
        for address in net.addresses():
            engine = net.node(address).engine
            assert handle.qid not in engine.queries
            assert handle.qid in engine._stop_tombstones
            assert not engine.records

    def test_tombstone_expires(self, net):
        engine = net.node(net.addresses()[2]).engine
        engine._stop_query("ghost#1")
        assert "ghost#1" in engine._stop_tombstones
        net.advance(STOP_TOMBSTONE_TTL + 1)
        # After the TTL a (hypothetical) fresh adoption is allowed again.
        plan = net.compile_sql(CONTINUOUS_SQL)
        engine._adopt_query({
            "qid": "ghost#1", "plan": plan, "t0": net.now,
            "origin": net.addresses()[0],
        })
        assert "ghost#1" in engine.queries
        engine._stop_query("ghost#1")

    def test_learnt_tombstone_keeps_the_later_forget_at(self):
        engine = make_engine()
        engine._stop_query("q#1", forget_at=50.0)
        engine._stop_query("q#1", forget_at=40.0)
        assert engine._stop_tombstones["q#1"] == 50.0
        engine._stop_query("q#1", forget_at=60.0)
        assert engine._stop_tombstones["q#1"] == 60.0


PRIVATE = {"shared": False}
BLOOM_JOIN = "SELECT r.v AS v, s2.w AS w FROM r, s2 WHERE r.k = s2.k"


class TestOneLifecyclePerQuery:
    """Stamped, private and one-shot plans go through one lifecycle;
    ``engine.queries[qid].execution`` is the one way to their dataflow."""

    def test_private_and_shared_twins_retire_at_one_instant(self, net):
        # LIFETIME is not a multiple of EVERY: both retire a deadline
        # and the teardown slack after t0 + LIFETIME, not after the
        # last boundary before it.
        sql = CONTINUOUS_SQL.replace("LIFETIME 40", "LIFETIME 45")
        shared = net.submit_sql(sql)
        private = net.submit_sql(sql, options=PRIVATE)
        retire_at = shared.t0 + 45 + shared.plan.deadline + TEARDOWN_SLACK
        net.advance(retire_at - 1.0 - net.now)  # past 40 + deadline + slack
        for address in net.addresses():
            queries = net.node(address).engine.queries
            assert shared.qid in queries and private.qid in queries
        net.advance(1.5)
        for address in net.addresses():
            engine = net.node(address).engine
            assert not engine.queries and not engine.records

    @pytest.mark.parametrize("options", [None, PRIVATE])
    def test_stop_before_first_boundary_leaves_nothing(self, net, options):
        handle = net.submit_sql(CONTINUOUS_SQL, options=options)
        net.advance(2)  # adopted everywhere, still inside epoch 0
        held = {}
        for address in net.addresses():
            query = net.node(address).engine.queries[handle.qid]
            ticking = query.record.stage or query.record  # owns the timer
            held[address] = (ticking.next_timer, query.execution)
        handle.stop()
        net.advance(3)
        for address, (timer, execution) in held.items():
            node = net.node(address)
            assert handle.qid not in node.engine.queries
            assert not node.engine.records
            assert timer.cancelled
            assert execution is None or execution.closed
            assert live_stream_scans(node.engine, "s") == 0
            assert not node.chord._delivery_handlers

    @pytest.mark.parametrize("options", [None, PRIVATE])
    def test_plan_adopted_after_its_last_epoch_builds_nothing(self, net,
                                                              options):
        plan = net.compile_sql(CONTINUOUS_SQL, options=options)
        engine = net.node(net.addresses()[2]).engine
        net.advance(55)
        # A plan that took 50.5 s to arrive: past the last epoch
        # (t0 + 40) but inside its settling time, so the guard record
        # lingers.
        engine._adopt_query({
            "qid": "late#1", "plan": plan, "t0": net.now - 50.5,
            "origin": net.addresses()[0],
        })
        query = engine.queries["late#1"]
        assert query.execution is None and not query.record.on_grid
        assert query.record.next_timer is None
        net.advance(plan.deadline + TEARDOWN_SLACK)
        assert not engine.queries and not engine.records
        # Past the instant every node retires it, a plan is refused.
        engine._adopt_query({
            "qid": "late#2", "plan": plan,
            "t0": net.now - 40 - plan.deadline - TEARDOWN_SLACK,
            "origin": net.addresses()[0],
        })
        assert not engine.queries and not engine.records

    def _bloom_net(self):
        n = PierNetwork(nodes=8, seed=5)
        n.create_local_table("r", [("k", "INT"), ("v", "INT")])
        n.create_local_table("s2", [("k", "INT"), ("w", "INT")])
        for i, address in enumerate(n.addresses()):
            n.insert(address, "r", [(i % 4, i)])
            n.insert(address, "s2", [(i % 4, 100 + i)])
        return n

    def _control_epochs(self, engine, handle, epoch):
        """Hand ``engine`` a merged-filter broadcast for ``epoch``; the
        epochs its execution's ``control`` was called with."""
        execution = engine.queries[handle.qid].execution
        seen = []
        execution.control = lambda op_id, payload, k: seen.append(k)
        engine._on_broadcast({
            "ctl": "bloom", "qid": handle.qid, "epoch": epoch,
            "op_id": "bloom:op1", "filters": {},
        }, None, 0)
        return seen

    def test_bloom_control_reaches_an_older_open_epoch(self):
        net = self._bloom_net()
        handle = net.submit_sql(
            BLOOM_JOIN + " EVERY 5 SECONDS LIFETIME 30 SECONDS",
            options={"join_strategy": "bloom"},
        )
        assert handle.plan.epoch_overlap == 2
        net.advance(11)  # epoch 2 is newest, epoch 1 still open
        engine = net.node(net.addresses()[3]).engine
        execution = engine.queries[handle.qid].execution
        assert execution.current_epoch == 2 and 1 in execution._open_epochs
        assert self._control_epochs(engine, handle, 1) == [1]
        handle.stop()

    def test_bloom_control_reaches_a_oneshot_execution(self):
        net = self._bloom_net()
        handle = net.submit_sql(
            BLOOM_JOIN, options={"join_strategy": "bloom"})
        net.advance(1)
        engine = net.node(net.addresses()[3]).engine
        execution = engine.queries[handle.qid].execution
        assert isinstance(execution, EpochExecution)
        assert self._control_epochs(engine, handle, 0) == [0]


SKEW_JOIN = (
    "SELECT d.w, SUM(f.v) AS total, COUNT(*) AS n FROM flows f, dims d "
    "WHERE f.k = d.k GROUP BY d.w EVERY 10 SECONDS WINDOW 10 SECONDS "
    "LIFETIME 30 SECONDS"
)


def skew_join_net():
    """A tiny ``skew_join``: a fact stream on every node, one dimension
    stream refreshed mid-window, the query submitted at ``t0 >= every``
    (so its epoch 0 is grid epoch 1, not 0)."""
    n = PierNetwork(nodes=6, seed=17)
    n.create_stream_table("flows", [("k", "INT"), ("v", "INT")], window=20.0)
    n.create_stream_table("dims", [("k", "INT"), ("w", "INT")], window=20.0)

    def every(address, table, period, phase, rows):
        def tick():
            for row in rows:
                n.append_stream(address, table, row)
            n.node(address).engine.set_timer(period, tick)

        n.node(address).engine.set_timer(phase, tick)

    for i, address in enumerate(n.addresses()):
        every(address, "flows", 0.5, 0.1 * i,
              [((i * j) % 5, i + j) for j in range(3)])
    every(n.addresses()[0], "dims", 10.0, 5.0, [(k, k % 2) for k in range(5)])
    n.advance(10.0)
    return n


class TestFirstEpoch:
    """A record first builds at its earliest subscriber's epoch 1: no
    node scans, joins, folds or ships the submission-instant epoch,
    which nobody reads."""

    def _leg(self, options, monkeypatch):
        n = skew_join_net()
        built = []  # (first epoch's instant, build instant)
        real_build = SpineRecord.build

        def build(record, engine, k, t_k):
            (sub,) = record.subscribers.values()
            built.append((record.t_k(sub.offset + 1), engine.clock.now))
            return real_build(record, engine, k, t_k)

        monkeypatch.setattr(SpineRecord, "build", build)
        results = []
        handle = n.submit_sql(SKEW_JOIN, on_epoch=results.append,
                              options=options)
        n.advance(30.0 + handle.plan.deadline + TEARDOWN_SLACK + 1.0)
        answers = {r.epoch: sorted(r.rows) for r in results}
        return n.message_counters(), answers, built

    def test_join_spine_ships_no_more_than_its_private_twin(self,
                                                            monkeypatch):
        shared, shared_answers, built = self._leg(None, monkeypatch)
        private, private_answers, _ = self._leg(PRIVATE, monkeypatch)
        assert len(built) == 6  # one spine per node
        for first, at in built:
            assert at >= first - 1e-9, "spine built before its first epoch"
        assert set(private_answers) == {1, 2, 3}
        assert shared_answers == private_answers
        assert shared["exchange_rows"] <= private["exchange_rows"]
        assert shared["bytes_sent"] <= private["bytes_sent"]


class TestStableRendezvous:
    def test_only_a_suspect_owner_salts_the_route(self):
        """A standing tree edge rendezvouses at the same epoch-free key
        every epoch; the per-epoch ``|e<k>`` salt appears only while the
        learned owner is suspect, and goes away when suspicion clears."""
        engine = make_engine(EngineConfig(max_batch_rows=1))
        exchange = make_exchange(engine, key={"kind": "group"}, mode="tree")
        rid, row = ("g",), (("g",), (1.0,))
        stable = storage_key(exchange._route_ns, rid)

        def ship(epoch):
            with exchange.ctx.in_epoch(epoch):
                exchange.push(row)
            return engine.dht.routed[-1]

        for epoch in (3, 4, 5):  # nothing learned: nothing to distrust
            key, payload = ship(epoch)
            assert key == stable and "salted" not in payload
            assert payload["learn"] and payload["epoch"] == epoch
        owner = NodeRef(node_id_for("owner"), "owner")
        engine._on_direct({"op": "xowner", "ns": exchange._ns, "rid": rid,
                           "ref": owner, "region": None}, "owner")
        key, payload = ship(6)
        assert key == stable and "salted" not in payload
        assert "learn" not in payload
        engine.dht.suspects.add("owner")
        assert engine.route_owner_suspect(exchange._ns, rid)
        key, payload = ship(7)
        assert key == storage_key(
            epoch_route_ns(exchange._route_ns, 7), rid)
        assert payload["salted"] is True
        engine.dht.suspects.clear()
        key, payload = ship(8)
        assert key == stable and "salted" not in payload


# ----------------------------------------------------------------------
# The standing stream scan: a cursor into the fragment's log
# ----------------------------------------------------------------------
class PendingScanModel:
    """The algorithm the cursor replaced, kept as the oracle: a private
    ``(stamp, row)`` list fed one call per append, filtered in full at
    every boundary. Emissions come back as the events a consumer sees."""

    def __init__(self, seed_items, window, every, geometry=None, origin=None):
        self.pending = list(seed_items)
        self.scanned = len(self.pending)  # the seed
        self.window, self.every = window, every
        self.geometry, self.origin = geometry, origin

    def feed(self, stamp, row):
        self.pending.append((stamp, row))
        self.scanned += 1

    def epoch(self, k, t_k):
        if self.geometry is not None:
            return self._paned_epoch(k)
        lo = t_k - self.window
        keep_after = t_k + self.every - self.window
        kept, out = [], []
        for ts, row in self.pending:
            if lo < ts <= t_k:
                out.append(row)
            if ts > keep_after:
                kept.append((ts, row))
        self.scanned += len(self.pending)
        self.pending = kept
        return [("rows", out)] if out else []

    def _paned_epoch(self, k):
        geometry = self.geometry
        lo, hi = window_pane_range(k, geometry["every"], geometry["window"])
        kept, buckets = [], {}
        for ts, row in self.pending:
            p = pane_index(ts, self.origin, geometry["width"])
            if p >= hi:
                kept.append((ts, row))
                continue
            self.scanned += 1
            if p >= lo:
                buckets.setdefault(p, []).append(row)
        self.pending = kept
        events = []
        for p in sorted(buckets):
            events += [("pane", p), ("rows", buckets[p])]
        return events


class EventSink(Operator):
    def __init__(self):
        self.events = []
        self.consumers = []

    def push_batch(self, batch, port=0):
        self.events.append(("rows", batch.rows()))

    def open_pane(self, pane):
        self.events.append(("pane", pane))


SCAN_SHAPES = {
    "tumbling": (10.0, 10.0, False),
    "gapped": (4.0, 10.0, False),
    "sliding": (7.5, 2.5, False),
    "paned": (7.5, 2.5, True),
    "paned-coarse": (30.0, 10.0, True),
}


class TestScanCursor:
    @pytest.mark.parametrize("shape", sorted(SCAN_SHAPES))
    @pytest.mark.parametrize("seed", range(6))
    def test_cursor_scan_matches_the_pending_list_it_replaced(self, shape,
                                                              seed):
        """One random schedule of appends and boundaries -- ties on a
        boundary before and after its wave, late and explicitly old
        stamps, silent epochs -- through the real ``Scan`` and through
        the ``_pending`` model: same rows and pane markers in the same
        order, same ``rows_scanned``, teardown's unread tail included."""
        window, every, paned = SCAN_SHAPES[shape]
        rng = SeededRng(seed, "scan-cursor/" + shape)
        engine = make_engine()
        # Long enough that no row dies before the scan has read it:
        # a row the horizon dropped unread is never examined, where the
        # list charged it (the horizon rule has its own test below).
        horizon = (window + every) * rng.choice([1, 2])
        engine.catalog.define(TableDef(
            "s", Schema.of(("v", FLOAT)), source="stream", window=horizon))
        log = engine.fragment("s")
        serial = iter(range(10 ** 6))
        model = None

        def append(stamp):
            row = (float(next(serial)),)
            engine.stream_append("s", row, stamp)
            if model is not None:
                model.feed(log.latest()[0], row)

        k0, t0 = rng.choice([0, 3]), 100.0
        for _ in range(rng.randint(0, 30)):  # history, all inside the horizon
            append(t0 - rng.uniform(0.0, window))
        if rng.random() < 0.5:
            append(t0)

        params = {"table": "s"}
        geometry = None
        if paned:
            width = pane_width(window, every)
            geometry = params["paned"] = {
                "width": width, "every": round(every / width),
                "window": round(window / width)}
        spec = OpSpec("scan", "scan", params)
        plan = QueryPlan(
            [spec, OpSpec("sink", "result", inputs=["scan"])], "sink",
            mode="continuous", every=every, window=window, standing=True)
        ctx = LocalQueryContext(engine, plan, "q", k0, t0, "site",
                                standing=True)
        scan, sink = Scan(ctx, spec), EventSink()
        scan.wire(sink, 0)
        before = engine.rows_scanned
        live = log.first_live()
        model = PendingScanModel(
            zip(log.stamps_in(live, log.end), log.rows_in(live, log.end)),
            window, every, geometry, t0 - k0 * every)
        expected = model.epoch(k0, t0)
        scan.start()
        for k in range(k0 + 1, k0 + 13):
            t_prev, t_k = t0 + (k - 1 - k0) * every, t0 + (k - k0) * every
            if rng.random() < 0.5:
                append(t_prev)  # stamped on the boundary, after its wave
            for _ in range(rng.choice([0, 0, 3, 12])):
                roll = rng.random()
                if roll < 0.1:
                    append(t_prev - rng.uniform(0, window))  # late: clamped
                else:
                    append(rng.uniform(t_prev, t_k))
            if rng.random() < 0.5:
                append(t_k)  # stamped on the boundary, before its wave
            ctx.epoch = ctx.active_epoch = k
            ctx.t0 = t_k
            expected += model.epoch(k, t_k)
            scan.open_epoch(k, t_k)
            assert sink.events == expected
        for _ in range(rng.randint(0, 5)):
            append(t_k + 1.0)
        scan.teardown()
        assert engine.rows_scanned - before == model.scanned
        assert scan._log is None  # the scan lets go of the fragment

    def test_fragments_stay_bounded_over_fifty_windows(self):
        """A standing SUM answers 50 windows exactly while no fragment
        ever holds more than twice what its horizon covers."""
        net = PierNetwork(nodes=8, seed=11)
        period, burst, horizon, every, windows = 0.125, 5, 8.0, 4.0, 50
        net.create_stream_table("s", [("v", "FLOAT")], window=horizon)
        appended = []  # (time, value)
        high_water = {}

        def ticker(address, phase):
            engine = net.node(address).engine
            count = iter(range(10 ** 6))

            def tick():
                for _ in range(burst):
                    value = float(next(count) % 7)
                    engine.stream_append("s", (value,))
                    appended.append((net.now, value))
                high_water[address] = max(high_water.get(address, 0),
                                          len(engine.fragment("s")._rows))
                engine.set_timer(period, tick)

            engine.set_timer(phase, tick)

        for i, address in enumerate(net.addresses()):
            ticker(address, 0.01 + 0.01 * i)
        net.advance(horizon)
        t0 = net.now
        results = {}
        net.submit_sql(
            "SELECT SUM(v) AS total, COUNT(*) AS n FROM s "
            "EVERY {} SECONDS WINDOW {} SECONDS LIFETIME {} SECONDS".format(
                int(every), int(every), int(every * windows)),
            on_epoch=lambda r: results.__setitem__(r.epoch, r.rows))
        net.advance(every * windows + 30)
        assert sorted(results) == list(range(1, windows + 1))
        for k in range(1, windows + 1):
            t_k = t0 + k * every
            inside = [v for t, v in appended if t_k - every < t <= t_k]
            assert results[k] == [(sum(inside), len(inside))]
        per_horizon = burst / period * horizon
        assert max(high_water.values()) <= 2 * per_horizon
        # The parent kept every row of all fifty windows.
        assert len(appended) / 8 > 20 * per_horizon

    @pytest.mark.parametrize("standing", [False, True])
    def test_window_wider_than_the_horizon_reads_what_the_horizon_keeps(
            self, standing):
        """The rule for a query that asks for more history than its
        table keeps: the plan is accepted as written, and the scan --
        one-shot or standing, seed and charge included -- reads what
        the horizon retains."""
        net = PierNetwork(nodes=4, seed=5)
        net.create_stream_table("s", [("v", "FLOAT")], window=10.0)
        engine = net.node(net.addresses()[0]).engine
        for stamp in range(40):
            engine.stream_append("s", (1.0,), float(stamp))
        net.advance(39.0 - net.now)
        assert len(engine.fragment("s")) == 11  # stamps 29..39
        before = engine.rows_scanned
        sql = "SELECT COUNT(*) AS n FROM s "
        if standing:
            sql += "EVERY 10 SECONDS WINDOW 30 SECONDS LIFETIME 10 SECONDS"
            plan = net.compile_sql(sql)
            assert plan.window == 30.0
            results = []
            net.submit_sql(sql, on_epoch=results.append)
            net.advance(25)
            # Epoch 1 ends at 49 and asks for (19, 49].
            assert [r.rows for r in results] == [[(11,)]]
            # The seed, then each row once into its pane (the plan is
            # paned: the window is assembled from pane partials).
            assert engine.rows_scanned - before == 22
        else:
            result = net.run_sql(sql + "WINDOW 30 SECONDS")  # (9, 39]
            assert result.rows == [(11,)]
            assert engine.rows_scanned - before == 11
