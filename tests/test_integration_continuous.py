"""Continuous queries: epochs, windows, lifetime, stop, late adoption."""

import pytest

from repro.core.network import PierNetwork
from repro.dht.ring import STABILIZE_PERIOD


def install_ticker(net, address, value, period=2.0, table="s"):
    """Append ``value`` every ``period`` seconds at ``address``."""

    def tick():
        engine = net.node(address).engine
        engine.stream_append(table, (value,))
        engine.set_timer(period, tick)

    net.node(address).engine.set_timer(0.1, tick)


@pytest.fixture
def net():
    n = PierNetwork(nodes=8, seed=200)
    n.create_stream_table("s", [("v", "FLOAT")], window=30.0)
    for i, address in enumerate(n.addresses()):
        install_ticker(n, address, float(i + 1))
    return n


class TestEpochs:
    def test_epochs_arrive_in_order(self, net):
        results = []
        net.submit_sql(
            "SELECT SUM(v) AS s FROM s EVERY 10 SECONDS WINDOW 4 SECONDS "
            "LIFETIME 50 SECONDS",
            on_epoch=results.append,
        )
        net.advance(70)
        assert [r.epoch for r in results] == list(range(1, len(results) + 1))
        assert len(results) == 5

    def test_window_sums_correct(self, net):
        # 8 nodes, values 1..8, tick every 2s, window 4s => 2 samples each.
        results = []
        net.submit_sql(
            "SELECT SUM(v) AS s, COUNT(*) AS n FROM s EVERY 10 SECONDS "
            "WINDOW 4 SECONDS LIFETIME 30 SECONDS",
            on_epoch=results.append,
        )
        net.advance(50)
        for r in results:
            total, count = r.rows[0]
            assert count == 16
            assert total == pytest.approx(2 * sum(range(1, 9)))

    def test_lifetime_expires_query(self, net):
        results = []
        handle = net.submit_sql(
            "SELECT COUNT(*) AS n FROM s EVERY 5 SECONDS WINDOW 5 SECONDS "
            "LIFETIME 20 SECONDS",
            on_epoch=results.append,
        )
        net.advance(120)
        assert handle.finished
        assert len(results) == 4
        # Engines forgot the query too (soft state).
        for address in net.addresses():
            assert handle.qid not in net.node(address).engine.queries

    def test_stop_halts_epochs(self, net):
        results = []
        handle = net.submit_sql(
            "SELECT COUNT(*) AS n FROM s EVERY 5 SECONDS WINDOW 5 SECONDS "
            "LIFETIME 300 SECONDS",
            on_epoch=results.append,
        )
        net.advance(22)
        handle.stop()
        seen = len(results)
        net.advance(40)
        assert len(results) <= seen + 1  # at most one in-flight epoch lands

    def test_grouped_continuous(self, net):
        net.create_stream_table("tagged", [("tag", "STR"), ("v", "FLOAT")],
                                window=30.0)

        def make_ticker(address, tag, value):
            def tick():
                engine = net.node(address).engine
                engine.stream_append("tagged", (tag, value))
                engine.set_timer(2.0, tick)

            return tick

        for i, address in enumerate(net.addresses()):
            tag = "even" if i % 2 == 0 else "odd"
            net.node(address).engine.set_timer(0.1, make_ticker(address, tag, float(i)))
        results = []
        net.submit_sql(
            "SELECT tag, COUNT(*) AS n FROM tagged GROUP BY tag "
            "EVERY 10 SECONDS WINDOW 4 SECONDS LIFETIME 20 SECONDS",
            on_epoch=results.append,
        )
        net.advance(40)
        for r in results:
            assert sorted(row[0] for row in r.rows) == ["even", "odd"]
            assert all(row[1] == 8 for row in r.rows)


class TestAdoption:
    def test_recovered_source_readopts_within_one_probe(self, net):
        # Crash a node, start the query, recover the node: it missed the
        # plan broadcast. A node that runs nothing advertises a None
        # digest, so the successor it probes answers with every
        # continuous plan it holds.
        victim = net.addresses()[3]
        net.crash_node(victim)
        results = []
        handle = net.submit_sql(
            "SELECT COUNT(*) AS n FROM s EVERY 10 SECONDS WINDOW 4 SECONDS "
            "LIFETIME 200 SECONDS",
            node=net.addresses()[0],
            on_epoch=results.append,
        )
        net.advance(15)
        net.recover_node(victim)
        install_ticker(net, victim, 99.0)
        net.advance(STABILIZE_PERIOD + 1.0)
        assert handle.qid in net.node(victim).engine.queries
        net.advance(30)
        counts = [r.rows[0][0] for r in results if r.rows]
        # Early epochs miss the victim (14 samples), later ones include it.
        assert counts[0] == 14
        assert counts[-1] == 16

    def test_epoch_while_node_down_reports_fewer(self, net):
        results = []
        net.submit_sql(
            "SELECT COUNT(*) AS n FROM s EVERY 10 SECONDS WINDOW 4 SECONDS "
            "LIFETIME 60 SECONDS",
            node=net.addresses()[0],
            on_epoch=results.append,
        )
        # Epoch 1 (t0+10) closes at about t0+21; crash only after that so
        # the first answer is complete and later ones show the loss.
        net.advance(22)
        down = net.addresses()[5]
        net.crash_node(down)
        net.advance(35)
        counts = [r.rows[0][0] for r in results if r.rows]
        assert counts[0] == 16
        assert any(c < 16 for c in counts[1:])
