"""Batched exchange path: equivalence with the unbatched exchange.

The batching layer must be invisible to query semantics: the same
workload run with ``max_batch_rows = 1`` (one route message per row,
the original behaviour) and with batching enabled has to produce identical
results -- in clean networks, under message loss, and across failures.
What may change is the message count, which is the whole point.
"""

import os
import subprocess
import sys
from types import SimpleNamespace

import pytest
from stubs import make_engine, make_exchange

from repro.core import engine as engine_module, exchange as exchange_module
from repro.core.engine import EngineConfig
from repro.core.network import PierConfig, PierNetwork

JOIN_SQL = (
    "SELECT r.k AS k, r.v AS rv, s.v AS sv FROM r, s WHERE r.k = s.k"
)


def engine_config(batched):
    """Default batching, or the one-row cap that ships every row alone."""
    return EngineConfig() if batched else EngineConfig(max_batch_rows=1)


def build_join_net(seed, batched, nodes=16):
    engine = engine_config(batched)
    net = PierNetwork(nodes=nodes, seed=seed, config=PierConfig(engine=engine))
    net.create_local_table("r", [("k", "INT"), ("v", "INT")])
    net.create_local_table("s", [("k", "INT"), ("v", "INT")])
    addresses = net.addresses()
    # Co-keyed rows per sender so batches actually form: each node holds
    # several r-rows for each of a few keys, and one s-row per key.
    for i, address in enumerate(addresses):
        keys = [(i + j) % 8 for j in range(2)]
        net.insert(address, "r",
                   [(k, 10 * i + c) for k in keys for c in range(4)])
        net.insert(address, "s", [((i * 3) % 8, i)])
    return net


def run_join(net):
    before = dict(net.message_counters())
    result = net.run_sql(JOIN_SQL)
    after = net.message_counters()
    deltas = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    return sorted(result.rows), deltas


class TestJoinEquivalence:
    def test_same_rows_and_fewer_messages(self):
        unbatched_rows, unbatched_msgs = run_join(build_join_net(21, False))
        batched_rows, batched_msgs = run_join(build_join_net(21, True))
        assert batched_rows == unbatched_rows
        assert unbatched_rows  # non-trivial workload
        # Same tuples moved, in fewer (batch-bearing) messages.
        assert batched_msgs["exchange_rows"] == unbatched_msgs["exchange_rows"]
        assert batched_msgs.get("exchange_batches", 0) > 0
        assert batched_msgs["exchange_messages"] < unbatched_msgs["exchange_messages"]
        # Wire messages need not fall: the unbatched run's same-instant
        # rows share hop bundles. What a batch saves is the envelope
        # each row would have carried.
        assert batched_msgs["bytes_sent"] < 0.7 * unbatched_msgs["bytes_sent"]

    @staticmethod
    def _drop_routed(net, loss_rate):
        """Drop a fraction of *routed* messages (the exchange traffic).

        Loss is applied to the layer batching changes -- key-routed
        deliveries, which hop-by-hop acks re-forward, alone or several
        to a hop bundle -- so both configurations must still move every
        row. Result-return and RPC traffic is left alone: it has no
        retransmission and loses rows identically with or without
        batching.
        """
        original_send = net.net.send
        rng = net.rng.fork("route-loss")

        def lossy_send(src, dst, payload):
            if getattr(payload, "kind", None) in ("route", "hop_bundle"):
                if rng.random() < loss_rate:
                    net.net.counters.add("messages_lost")
                    return
            original_send(src, dst, payload)

        net.net.send = lossy_send

    def test_same_messages_under_any_hash_seed(self):
        # A two-scan plan's scans start in one fixed order, so what
        # leaves a node first -- and every latency draw after it -- does
        # not depend on how this interpreter hashes strings.
        script = (
            "import json\n"
            "from test_exchange_batching import build_join_net, run_join\n"
            "rows, deltas = run_join(build_join_net(21, False))\n"
            "print(json.dumps([rows, sorted(deltas.items())]))\n"
        )
        here = os.path.dirname(os.path.abspath(__file__))
        path = os.pathsep.join([here, os.path.join(here, "..", "src")])
        runs = [
            subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, check=True,
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            ).stdout
            for seed in ("1", "4")
        ]
        assert runs[0] == runs[1]

    def test_loss_recovery_matches_unbatched(self):
        # Hop-by-hop acks re-forward lost routed messages, so a lost
        # batch is recovered whole, exactly like a lost single row.
        # Loss near an owner can still legitimately land rows on an
        # heir (PIER prefers approximate delivery to a drop), so the
        # contract is: no fabricated rows, near-complete answers, and
        # batching no worse than the unbatched exchange.
        complete, _ = run_join(build_join_net(22, False))
        rows_by_config = []
        total_lost = 0
        for batched in (False, True):
            net = build_join_net(22, batched)
            # 5 %: same-instant rows share hops, so there are about 85
            # routed wire messages per run here to lose, not 230.
            self._drop_routed(net, 0.05)
            rows, _ = run_join(net)
            total_lost += net.message_counters().get("messages_lost", 0)
            assert set(rows) <= set(complete)  # loss never invents rows
            assert len(rows) >= 0.9 * len(complete)
            rows_by_config.append(rows)
        assert total_lost > 0  # the loss hook actually dropped messages
        # Fewer messages means fewer loss events: batching must never
        # recover *worse* than the per-row exchange on this workload.
        assert len(rows_by_config[1]) >= len(rows_by_config[0])

    def test_same_rows_after_crashes(self):
        results = []
        for batched in (False, True):
            net = build_join_net(23, batched, nodes=20)
            for address in net.addresses()[15:18]:
                net.crash_node(address)
            net.advance(30)  # let the ring heal around the corpses
            rows, _ = run_join(net)
            results.append(rows)
        assert results[0] == results[1]
        assert results[0]

    def test_continuous_aggregate_under_churn_tracks_unbatched(self):
        # Same seed means the same churn schedule in both runs; the
        # only difference is the exchange path. Continuous epochs under
        # live churn may disagree by a straggler where a crash lands
        # mid-transfer, but the batched run has to track the unbatched
        # one epoch for epoch.
        per_config = []
        for batched in (False, True):
            engine = engine_config(batched)
            net = PierNetwork(nodes=16, seed=62, config=PierConfig(engine=engine))
            net.create_local_table("t", [("v", "INT")])

            def install(address, net=net):
                net.insert(address, "t", [(1,)])

            for address in net.addresses():
                install(address)
            site = net.addresses()[0]
            churn = net.start_churn(300.0, 60.0, on_join=install, exclude=[site])
            results = []
            net.submit_sql(
                "SELECT COUNT(*) AS n FROM t EVERY 15 SECONDS "
                "LIFETIME 120 SECONDS",
                node=site, on_epoch=results.append,
            )
            net.advance(140)
            leaves = churn.leaves
            churn.stop()
            assert leaves > 0  # churn really happened during the run
            per_config.append(
                [r.rows[0][0] if r.rows else 0 for r in results]
            )
        unbatched, batched = per_config
        assert len(batched) == len(unbatched) >= 6
        for a, b in zip(unbatched, batched):
            assert abs(a - b) <= 2  # within a straggler or two
        # Every epoch still hears from most of the 16 nodes.
        assert all(b >= 10 for b in batched)


class TestAggregationEquivalence:
    @staticmethod
    def _run(batched, tree):
        engine = engine_config(batched)
        net = PierNetwork(nodes=16, seed=31, config=PierConfig(engine=engine))
        net.create_local_table("t", [("g", "INT"), ("v", "INT")])
        for i, address in enumerate(net.addresses()):
            net.insert(address, "t", [(j % 4, i + j) for j in range(6)])
        options = None if tree else {"aggregation_tree": False}
        result = net.run_sql(
            "SELECT g, SUM(v) AS total, COUNT(*) AS n FROM t GROUP BY g",
            options=options,
        )
        return sorted(result.rows)

    def test_tree_aggregation_identical(self):
        assert self._run(True, tree=True) == self._run(False, tree=True)

    def test_rehash_aggregation_identical(self):
        assert self._run(True, tree=False) == self._run(False, tree=False)

    def test_tree_matches_rehash_when_batched(self):
        assert self._run(True, tree=True) == self._run(True, tree=False)


class TestRecursiveEquivalence:
    @staticmethod
    def _run(batched):
        engine = engine_config(batched)
        net = PierNetwork(nodes=12, seed=41, config=PierConfig(engine=engine))
        net.create_local_table("edge", [("src", "INT"), ("dst", "INT")])
        # A chain plus a shortcut: reachability needs several rounds.
        edges = [(i, i + 1) for i in range(8)] + [(0, 5)]
        for i, e in enumerate(edges):
            net.insert(net.addresses()[i % 12], "edge", [e])
        result = net.run_sql(
            "WITH RECURSIVE reach AS ("
            "  SELECT e.src AS src, e.dst AS dst FROM edge AS e"
            "  UNION"
            "  SELECT r.src AS src, e.dst AS dst FROM reach AS r, edge AS e"
            "  WHERE r.dst = e.src"
            ") SELECT src, dst FROM reach",
            options={"recursion_deadline": 30.0},
        )
        return sorted(result.rows)

    def test_recursive_identical(self):
        batched = self._run(True)
        unbatched = self._run(False)
        assert batched == unbatched
        # Transitive closure of the 0->1->...->8 chain; the (0, 5)
        # shortcut adds no pair the chain does not already reach.
        assert len(batched) == 8 * 9 // 2


class TestBatchLimits:
    def test_row_cap_ships_batch_early(self, monkeypatch):
        monkeypatch.setattr(exchange_module, "FLUSH_DELAY", 5.0)
        engine = make_engine(EngineConfig(max_batch_rows=3))
        exchange = make_exchange(engine, standing=False)
        sent = engine.dht.routed
        for i in range(7):
            exchange.push(("same-key",))  # one routing key, seven rows
        # Row cap is 3: two full batches ship immediately, one row waits.
        from repro.core.exchange import payload_rows

        assert [p["op"] for _k, p in sent] == ["deliver_batch", "deliver_batch"]
        assert all(len(payload_rows(p)) == 3 for _k, p in sent)
        engine.clock.run_for(6.0)  # flush window fires for the remainder
        assert sent[-1][1]["op"] == "deliver"
        assert sent[-1][1]["data"] == ("same-key",)

    def test_one_row_cap_is_unbatched(self):
        engine = make_engine(EngineConfig(max_batch_rows=1))
        exchange = make_exchange(engine, standing=False)
        for i in range(4):
            exchange.push((i,))
        assert [p["op"] for _k, p in engine.dht.routed] == ["deliver"] * 4
        assert engine.dht.timers == 0  # unbatched exchanges set no timers


class TestUndeliveredBuffer:
    @pytest.fixture
    def net(self, monkeypatch):
        monkeypatch.setattr(engine_module, "UNDELIVERED_TTL", 5.0)
        monkeypatch.setattr(engine_module, "UNDELIVERED_CAP", 10)
        return PierNetwork(nodes=4, seed=51)

    def test_early_rows_age_out(self, net):
        engine = net.node(net.any_address()).engine
        ns = "q|ghost#1|0|op3|0"
        engine._on_unclaimed_delivery({"ns": ns, "data": (1,)}, None)
        assert len(engine._undelivered[ns][1]) == 1
        net.advance(6.0)
        assert ns not in engine._undelivered

    def test_batch_rows_buffered_and_capped(self, net):
        engine = net.node(net.any_address()).engine
        ns = "q|ghost#2|0|op3|0"
        engine._on_unclaimed_delivery(
            {"ns": ns, "rows": [(i,) for i in range(8)]}, None
        )
        engine._on_unclaimed_delivery(
            {"ns": ns, "rows": [(i,) for i in range(8)]}, None
        )
        # Cap is 10: the second batch only partially fits.
        assert len(engine._undelivered[ns][1]) == 10

    def test_stop_query_clears_matching_namespaces(self, net):
        engine = net.node(net.any_address()).engine
        engine._on_unclaimed_delivery({"ns": "q|dead#7|0|op1|0", "data": (1,)}, None)
        engine._on_unclaimed_delivery({"ns": "q|live#8|0|op1|0", "data": (2,)}, None)
        engine._stop_query("dead#7", net.now + 60.0)
        assert "q|dead#7|0|op1|0" not in engine._undelivered
        assert "q|live#8|0|op1|0" in engine._undelivered

    def test_registration_still_replays_early_rows(self, net):
        # The TTL must not break the original purpose of the buffer:
        # rows arriving before the plan are handed to the execution.
        engine = net.node(net.any_address()).engine
        ns = "q|soon#1|0|op3|0"
        engine._on_unclaimed_delivery({"ns": ns, "rows": [(1,), (2,)]}, None)

        delivered = []

        class StubExecution:
            plan = SimpleNamespace(standing=False)

            def deliver_batch(self, op_id, port, rows, epoch, pane):
                delivered.extend(rows)

        engine.register_exchange_input(ns, StubExecution(), "op3", 0)
        assert delivered == [(1,), (2,)]
        assert ns not in engine._undelivered
        engine.unregister_exchange_input(ns)
