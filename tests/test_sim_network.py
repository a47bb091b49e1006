"""Transport semantics: delivery, loss, dead nodes, accounting."""

import pytest

from repro.sim.latency import ConstantLatency, GeoLatency, UniformLatency
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import SimNode
from repro.util.errors import SimulationError
from repro.util.rng import SeededRng


class Recorder(SimNode):
    def __init__(self, network, address):
        super().__init__(network, address)
        self.received = []

    def handle_message(self, src, payload):
        self.received.append((src, payload, self.clock.now))


@pytest.fixture
def net(clock):
    return Network(clock, ConstantLatency(0.1))


class TestRegistry:
    def test_register_and_lookup(self, net):
        node = Recorder(net, "a")
        assert net.node("a") is node

    def test_duplicate_address_rejected(self, net):
        Recorder(net, "a")
        with pytest.raises(SimulationError):
            Recorder(net, "a")

    def test_live_addresses_tracks_crashes(self, net):
        a = Recorder(net, "a")
        Recorder(net, "b")
        a.crash()
        assert net.live_addresses() == ["b"]


class TestDelivery:
    def test_message_arrives_after_latency(self, net, clock):
        Recorder(net, "a")
        b = Recorder(net, "b")
        net.send("a", "b", {"hello": 1})
        clock.run_until(0.05)
        assert b.received == []
        clock.run_until(0.2)
        assert len(b.received) == 1
        assert b.received[0][2] == pytest.approx(0.1)

    def test_message_to_dead_node_dropped(self, net, clock):
        Recorder(net, "a")
        b = Recorder(net, "b")
        b.crash()
        net.send("a", "b", "x")
        clock.run_until(1)
        assert b.received == []
        assert net.counters.get("messages_to_dead_node") == 1

    def test_message_to_unknown_address_dropped(self, net, clock):
        Recorder(net, "a")
        net.send("a", "ghost", "x")
        clock.run_until(1)
        assert net.counters.get("messages_to_dead_node") == 1

    def test_counters(self, net, clock):
        Recorder(net, "a")
        Recorder(net, "b")
        net.send("a", "b", "x")
        net.send("b", "a", "y")
        clock.run_until(1)
        assert net.counters.get("messages_sent") == 2
        assert net.counters.get("messages_delivered") == 2
        assert net.counters.get("bytes_sent") > 0

    def test_payload_is_sized_once_and_delivery_reuses_it(self, net, clock, monkeypatch):
        import repro.sim.network as network_module

        sized = []

        def counting_wire_size(payload):
            sized.append(payload)
            return 123

        monkeypatch.setattr(network_module, "wire_size", counting_wire_size)
        Recorder(net, "a")
        Recorder(net, "b")
        payload = {"kind": "x", "rows": [1, 2, 3]}
        net.send("a", "b", payload)
        net.send("a", "b", payload)
        clock.run_until(1)
        assert sized == [payload, payload]  # once per send, none on delivery
        assert net.counters.get("bytes_sent") == 246
        assert net.counters.get("messages_kind_x") == 2
        assert net.counters.get("bytes_kind_x") == 246
        assert net.inbound_bytes == {"b": 246}
        assert net.inbound_messages == {"b": 2}

    def test_on_deliver_observes_every_arrival(self, net, clock):
        Recorder(net, "a")
        b = Recorder(net, "b")
        c = Recorder(net, "c")
        c.crash()
        seen = []
        net.on_deliver = lambda src, dst, payload: seen.append(
            (src, dst, payload, clock.now))
        net.send("a", "b", "x")
        net.send("a", "c", "y")  # to a dead node: arrives, then dropped
        clock.run_until(1)
        assert seen == [("a", "b", "x", pytest.approx(0.1)),
                        ("a", "c", "y", pytest.approx(0.1))]
        assert len(b.received) == 1 and c.received == []
        assert net.inbound_bytes.keys() == {"b"}

    def test_broadcast_local_reaches_all_but_sender(self, net, clock):
        Recorder(net, "a")
        b = Recorder(net, "b")
        c = Recorder(net, "c")
        net.broadcast_local("a", "ping")
        clock.run_until(1)
        assert len(b.received) == 1 and len(c.received) == 1


class TestLoss:
    def test_loss_rate_drops_messages(self, clock):
        rng = SeededRng(3)
        net = Network(clock, ConstantLatency(0.01), rng, NetworkConfig(loss_rate=0.5))
        Recorder(net, "a")
        b = Recorder(net, "b")
        for _ in range(200):
            net.send("a", "b", "x")
        clock.run_until(1)
        assert 40 < len(b.received) < 160
        lost = net.counters.get("messages_lost")
        assert lost == 200 - len(b.received)

    def test_loss_rate_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(loss_rate=1.0)


class TestLatencyModels:
    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1)

    def test_uniform_bounds(self):
        rng = SeededRng(1)
        model = UniformLatency(0.01, 0.05, rng)
        for _ in range(100):
            assert 0.01 <= model.delay("a", "b") <= 0.05

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformLatency(0.5, 0.1, SeededRng(1))

    def test_geo_close_beats_far(self):
        rng = SeededRng(2)
        model = GeoLatency(rng, jitter_sigma=0.0)
        model.place("near1", 0.1, 0.1)
        model.place("near2", 0.11, 0.1)
        model.place("far", 0.9, 0.9)
        assert model.delay("near1", "near2") < model.delay("near1", "far")

    def test_geo_unplaced_gets_median_path(self):
        rng = SeededRng(2)
        model = GeoLatency(rng, jitter_sigma=0.0)
        assert model.delay("ghost1", "ghost2") > 0

    def test_geo_coordinates_accessor(self):
        model = GeoLatency(SeededRng(2))
        model.place("a", 0.3, 0.4)
        assert model.coordinates("a") == (0.3, 0.4)
        assert model.coordinates("missing") is None
