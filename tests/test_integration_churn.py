"""End-to-end behaviour under churn: the paper's reliability story."""

import pytest

from repro.core.network import PierNetwork


@pytest.fixture
def net():
    n = PierNetwork(nodes=20, seed=800)
    n.create_local_table("t", [("v", "INT")])
    for i, address in enumerate(n.addresses()):
        n.insert(address, "t", [(1,)])
    return n


class TestOneShotUnderFailures:
    def test_partial_answer_after_crashes(self, net):
        for address in net.addresses()[10:15]:
            net.crash_node(address)
        net.advance(10)  # let suspicion/stabilization settle a bit
        result = net.run_sql("SELECT COUNT(*) AS n FROM t",
                             node=net.addresses()[0])
        assert result.rows
        # The 15 live nodes answer; the dead ones simply do not.
        assert 13 <= result.rows[0][0] <= 15

    def test_immediate_query_after_mass_failure(self, net):
        # No settling time at all: hop acks must route around corpses.
        for address in net.addresses()[14:]:
            net.crash_node(address)
        result = net.run_sql("SELECT COUNT(*) AS n FROM t",
                             node=net.addresses()[0])
        assert result.rows
        assert result.rows[0][0] >= 12

    def test_recovered_nodes_rejoin_answers(self, net):
        victims = net.addresses()[5:9]
        for address in victims:
            net.crash_node(address)
        net.advance(20)
        for address in victims:
            net.recover_node(address)
            net.insert(address, "t", [(1,)])  # data regenerated locally
        net.advance(60)
        result = net.run_sql("SELECT COUNT(*) AS n FROM t")
        assert result.rows[0][0] == 20


class TestContinuousUnderChurn:
    def test_long_run_with_background_churn(self, net):
        net.create_stream_table("s", [("v", "FLOAT")], window=30)

        def make_ticker(address):
            def tick():
                engine = net.node(address).engine
                engine.stream_append("s", (1.0,))
                engine.set_timer(5.0, tick)
            return tick

        def install(address):
            net.node(address).engine.set_timer(0.3, make_ticker(address))

        for address in net.addresses():
            install(address)
        site = net.addresses()[0]
        net.start_churn(300.0, 60.0, on_join=install, exclude=[site])
        results = []
        net.submit_sql(
            "SELECT COUNT(*) AS n FROM s EVERY 20 SECONDS WINDOW 10 SECONDS "
            "LIFETIME 300 SECONDS",
            node=site, on_epoch=results.append,
        )
        net.advance(340)
        assert len(results) >= 13
        nonzero = [r for r in results if r.rows and r.rows[0][0] > 0]
        # The query keeps answering through churn.
        assert len(nonzero) >= 10

    def test_churn_counters(self, net):
        churn = net.start_churn(30.0, 10.0)
        net.advance(200)
        assert churn.leaves > 5
        assert churn.joins > 3
        churn.stop()


class TestRingHealing:
    def test_ring_heals_after_wave_of_failures(self, net):
        from ring_oracle import ring_is_consistent

        for address in net.addresses()[3:8]:
            net.crash_node(address)
        net.advance(90)
        chords = [net.node(a).chord for a in net.addresses()]
        assert ring_is_consistent(chords)

    def test_data_refound_after_handoff(self, net):
        # DHT rows whose owner leaves gracefully move to the successor.
        net.create_dht_table("kv", [("k", "STR"), ("v", "INT")],
                             partition_key="k", ttl=3600)
        for i in range(12):
            net.publish("node0", "kv", ("key{}".format(i), i))
        net.advance(3)
        # A graceful leave (not crash) should hand keys off.
        leaver = next(
            a for a in net.addresses() if net.node(a).chord.lscan("kv")
        )
        net.node(leaver).engine.on_crash()
        net.node(leaver).chord.leave()
        net.advance(30)
        result = net.run_sql("SELECT k, v FROM kv")
        assert len(result.rows) == 12

    def test_broadcast_repair_under_churn_query(self, net):
        # Crash nodes and immediately query: dissemination must repair
        # around dead fingers so live fragments still answer.
        for address in net.addresses()[::4]:
            if address != net.addresses()[1]:
                net.crash_node(address)
        result = net.run_sql("SELECT COUNT(*) AS n FROM t",
                             node=net.addresses()[1])
        live_with_data = len(net.live_addresses())
        assert result.rows
        assert result.rows[0][0] >= live_with_data - 2
