"""Plan dissemination: the plans one site submits in one instant travel
as one broadcast (``Coordinator._broadcast_plans``), and every engine
adopts each of them through the one adoption path plan sync uses."""

from repro.core.network import PierConfig, PierNetwork
from repro.core.plansync import PlanSync
from repro.dht.messages import parts_of
from repro.dht.ring import STABILIZE_PERIOD
from repro.sim.network import NetworkConfig
from repro.util.serde import wire_size


def fleet_sql(theta):
    return ("SELECT SUM(v) AS total, COUNT(*) AS n FROM s WHERE v > {} "
            "EVERY 10 SECONDS WINDOW 4 SECONDS LIFETIME 40 SECONDS"
            .format(theta))


def make_net(nodes=16, seed=58, config=None):
    net = PierNetwork(nodes=nodes, seed=seed, config=config)
    net.create_stream_table("s", [("v", "FLOAT")], window=30.0)
    return net


class Tap:
    """Counts the plan broadcasts and broadcast acks delivered, and
    keeps the plan payloads and the ``bcast_repair`` routes seen."""

    def __init__(self, net):
        self.broadcasts = 0
        self.acks = 0
        self.payloads = []
        self.repairs = []
        net.net.on_deliver = self

    def __call__(self, src, dst, wire):
        if wire.kind == "broadcast" and wire.payload.get("ctl") == "plan":
            self.broadcasts += 1
            if wire.payload not in self.payloads:
                self.payloads.append(wire.payload)
        elif wire.kind == "direct" and wire.payload.get("op") == "bcast_ack":
            self.acks += 1
        for part in parts_of(wire):
            if (part.kind == "route"
                    and part.payload.get("op") == "bcast_repair"):
                self.repairs.append(part.payload["payload"])


def holders(net, qid):
    return {a for a in net.live_addresses()
            if qid in net.node(a).engine.queries}


class TestOneBroadcastPerInstant:
    def test_k_plans_cost_what_one_plan_costs(self):
        net = make_net()
        site = net.addresses()[3]
        tap = Tap(net)
        net.submit_sql(fleet_sql(0), node=site)
        net.advance(3.0)
        one = (tap.broadcasts, tap.acks)
        assert one[0] == len(net.addresses()) - 1
        tap.broadcasts = tap.acks = 0
        for theta in range(1, 9):
            net.submit_sql(fleet_sql(theta), node=site)
        net.advance(3.0)
        assert (tap.broadcasts, tap.acks) == one

    def test_every_live_node_adopts_every_qid_with_one_t0(self):
        net = make_net()
        site = net.addresses()[5]
        handles = [net.submit_sql(fleet_sql(theta), node=site)
                   for theta in range(6)]
        net.advance(3.0)
        t0 = handles[0].t0
        for address in net.addresses():
            queries = net.node(address).engine.queries
            for handle in handles:
                assert queries[handle.qid].t0 == t0
                assert queries[handle.qid].origin == site

    def test_the_site_adopts_before_any_advance(self):
        net = make_net()
        site = net.addresses()[0]
        tap = Tap(net)
        handles = [net.submit_sql(fleet_sql(theta), node=site)
                   for theta in range(4)]
        engine = net.node(site).engine
        assert all(h.qid in engine.queries for h in handles)
        sent = net.message_counters().get("messages_kind_broadcast", 0)
        assert sent == 0  # the batch leaves at the flush, this instant
        net.advance(0.0)
        assert net.message_counters()["messages_kind_broadcast"] > 0
        net.advance(1.0)
        assert len(tap.payloads) == 1
        assert list(tap.payloads[0]["plans"]) == [h.qid for h in handles]

    def test_two_instants_give_two_broadcast_trees(self):
        net = make_net()
        site = net.addresses()[7]
        tap = Tap(net)
        first = [net.submit_sql(fleet_sql(theta), node=site)
                 for theta in range(3)]
        net.advance(0.1)
        second = [net.submit_sql(fleet_sql(theta), node=site)
                  for theta in range(3, 5)]
        net.advance(3.0)
        assert tap.broadcasts == 2 * (len(net.addresses()) - 1)
        assert [list(p["plans"]) for p in tap.payloads] == [
            [h.qid for h in first], [h.qid for h in second]]
        assert [p["t0"] for p in tap.payloads] == [first[0].t0,
                                                   second[0].t0]

    def test_a_one_plan_payload_weighs_no_more_than_before(self):
        # 156 B is the per-plan payload the same plan and qid cost when
        # each plan was broadcast on its own.
        net = make_net()
        tap = Tap(net)
        handle = net.submit_sql(fleet_sql(0), node=net.addresses()[10])
        net.advance(1.0)
        (payload,) = tap.payloads
        assert list(payload["plans"]) == [handle.qid]
        assert wire_size(payload) <= 156


class TestRobustness:
    def test_site_crash_in_its_submit_instant_keeps_later_plans_going(self):
        # The flush timer dies with the site: a list of plans it never
        # sent must not survive the crash, or no later submit arms one.
        net = make_net()
        site = net.addresses()[2]
        net.submit_sql(fleet_sql(0), node=site)
        net.crash_node(site)
        net.advance(1.0)
        net.recover_node(site)
        net.advance(3 * STABILIZE_PERIOD)
        handle = net.submit_sql(fleet_sql(1), node=site)
        net.advance(2.0)
        assert holders(net, handle.qid) == set(net.live_addresses())

    def test_submit_and_stop_in_one_instant_leaves_nothing(self):
        net = make_net()
        site = net.addresses()[4]
        tap = Tap(net)
        kept = net.submit_sql(fleet_sql(0), node=site)
        stopped = net.submit_sql(fleet_sql(1), node=site)
        stopped.stop()
        net.advance(3.0)
        assert [list(p["plans"]) for p in tap.payloads] == [[kept.qid]]
        net.advance(3 * STABILIZE_PERIOD)
        assert holders(net, stopped.qid) == set()
        assert holders(net, kept.qid) == set(net.live_addresses())

    def test_repair_carries_the_whole_batch(self, monkeypatch):
        # No plan sync: only the broadcast and its repairs carry plans.
        monkeypatch.setattr(PlanSync, "on_digest", lambda *args: None)
        net = make_net(nodes=48)
        site = net.addresses()[0]
        fingers = net.node(site).chord._distinct_fingers()
        # Finger children, not the successor, at seed 58 ring positions
        # 2, 4 and 15 from the site: each has a live ring successor to
        # take its range over.
        for i in (1, 3, 4):
            net.crash_node(fingers[i].address)
        tap = Tap(net)
        handles = [net.submit_sql(fleet_sql(theta), node=site)
                   for theta in range(5)]
        net.advance(20.0)
        qids = [h.qid for h in handles]
        assert tap.repairs
        assert all(list(p["plans"]) == qids for p in tap.repairs)
        for qid in qids:
            assert holders(net, qid) == set(net.live_addresses())

    def test_a_lost_batch_heals_within_one_plan_sync_probe(self):
        # A lost copy costs the range it covers every plan of the batch
        # until the sender's repair resends it; what a lost repair
        # leaves out, the next stabilise probe's plan sync brings.
        net = make_net(nodes=24, config=PierConfig(
            network=NetworkConfig(loss_rate=0.1)))
        net.advance(10.0)
        tap = Tap(net)
        handles = [net.submit_sql(fleet_sql(theta),
                                  node=net.addresses()[1])
                   for theta in range(5)]
        net.advance(STABILIZE_PERIOD + 1.0)
        assert tap.repairs  # some copy or its ack was lost
        for handle in handles:
            assert holders(net, handle.qid) == set(net.live_addresses())
