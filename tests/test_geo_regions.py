"""Region-aware execution: topology, proximity routing, regional trees.

Four layers under test:

* :class:`~repro.sim.latency.RegionalLatency` -- the region-labelled
  topology model (rack-scale intra-region paths, backbone cross-region
  paths, a stable base delay per region pair);
* the simulated network's cross-region accounting and live region
  partitions (links cut, nodes alive with state);
* Chord's proximity neighbor selection -- same-region candidates win
  next-hop and finger slots when they do not materially lengthen the
  ID-space stride -- and the per-region rendezvous every member of a
  region independently agrees on;
* the two-level regional aggregation trees: one combined partial per
  region crosses the backbone per flush, a partitioned region's
  retained panes reconcile to the exact answer after the heal, and the
  hop-shortcut owner cache's cross-region entries expire fast enough
  that a killed-and-rejoined region is never pinned by a stale owner.
"""

import pytest

from repro.core.engine import EngineConfig
from repro.core.exchange import Exchange
from repro.core.network import PierConfig, PierNetwork
from repro.core.owners import CROSS_REGION_CACHE_TTL, ROUTE_CACHE_TTL
from repro.dht.chord import ChordNode, NodeRef
from repro.dht.config import DhtConfig
from repro.sim.clock import SimClock
from repro.sim.latency import RegionalLatency
from repro.sim.network import Network
from repro.util.ids import ID_BITS, distance_cw
from repro.util.rng import SeededRng

MOD = 1 << ID_BITS


def two_region_map(per_region=3, regions=("us", "eu")):
    return {
        "{}{}".format(region, i): region
        for region in regions for i in range(per_region)
    }


# ----------------------------------------------------------------------
# Topology model
# ----------------------------------------------------------------------
class TestRegionalLatency:
    def _model(self, jitter=0.0, **kwargs):
        return RegionalLatency(
            SeededRng(7).fork("latency"), regions=two_region_map(),
            jitter_sigma=jitter, **kwargs,
        )

    def test_region_directory(self):
        model = self._model()
        assert model.region_of("us0") == "us"
        assert model.region_of("eu2") == "eu"
        assert model.region_of("nowhere") is None
        assert model.regions() == ["eu", "us"]
        assert model.members("us") == ["us0", "us1", "us2"]

    def test_intra_region_delay_is_rack_scale(self):
        model = self._model()
        d = model.delay("us0", "us1")
        assert model.intra[0] <= d <= model.intra[1]
        # Same region -> same local base, any pair of members.
        assert model.delay("us1", "us2") == d

    def test_cross_region_delay_is_backbone_scale(self):
        model = self._model()
        d = model.delay("us0", "eu0")
        assert model.cross[0] <= d <= model.cross[1]
        assert d > 10 * model.delay("us0", "us1")

    def test_pair_base_is_stable_and_symmetric(self):
        model = self._model()
        assert model.delay("us0", "eu1") == model.delay("eu2", "us2")

    def test_unlabelled_endpoint_gets_median_backbone(self):
        model = self._model()
        assert model.delay("us0", "elsewhere") == sum(model.cross) / 2.0

    def test_jitter_spreads_but_keeps_scale(self):
        model = self._model(jitter=0.2)
        draws = {model.delay("us0", "eu0") for _ in range(20)}
        assert len(draws) > 1  # jitter actually varies
        for d in draws:
            assert 0.02 < d < 0.6  # still recognisably a backbone path


# ----------------------------------------------------------------------
# Cross-region accounting + live partitions
# ----------------------------------------------------------------------
class _Sink:
    def __init__(self, address):
        self.address = address
        self.alive = True
        self.received = []

    def handle_message(self, src, payload):
        self.received.append((src, payload))


class TestCrossRegionNetwork:
    @pytest.fixture
    def net(self):
        rng = SeededRng(9)
        clock = SimClock()
        latency = RegionalLatency(rng.fork("latency"),
                                  regions=two_region_map(per_region=2))
        net = Network(clock, latency, rng.fork("net"))
        for address in two_region_map(per_region=2):
            net.register(_Sink(address))
        return net

    def _deliver_all(self, net):
        net.clock.run_for(1.0)

    def test_cross_region_counters(self, net):
        net.send("us0", "us1", {"kind": "x"})
        net.send("us0", "eu0", {"kind": "x"})
        self._deliver_all(net)
        counters = net.counters.as_dict()
        assert counters["messages_delivered"] == 2
        assert counters["cross_region_messages"] == 1
        assert 0 < counters["cross_region_bytes"] < counters["bytes_sent"]

    def test_partition_cuts_only_backbone_links(self, net):
        net.partition_region("eu")
        net.send("us0", "eu0", {"kind": "x"})  # crosses the cut: dropped
        net.send("eu0", "us0", {"kind": "x"})  # other direction too
        net.send("eu0", "eu1", {"kind": "x"})  # intra-region: unaffected
        net.send("us0", "us1", {"kind": "x"})  # far side of the cut too
        self._deliver_all(net)
        counters = net.counters.as_dict()
        assert counters["messages_partitioned"] == 2
        assert counters["messages_delivered"] == 2
        assert net.node("eu1").received and net.node("us1").received
        assert not net.node("us0").received and not net.node("eu0").received

    def test_heal_restores_delivery(self, net):
        net.partition_region("eu")
        net.send("us0", "eu0", {"kind": "x"})
        net.heal_region("eu")
        net.send("us0", "eu0", {"kind": "x"})
        self._deliver_all(net)
        assert len(net.node("eu0").received) == 1
        assert net.counters.as_dict()["messages_partitioned"] == 1


# ----------------------------------------------------------------------
# Proximity neighbor selection (overlay)
# ----------------------------------------------------------------------
class TestProximitySelection:
    def _chord(self, proximity):
        rng = SeededRng(3)
        clock = SimClock()
        latency = RegionalLatency(rng.fork("latency"),
                                  regions=two_region_map(per_region=4))
        net = Network(clock, latency, rng.fork("net"))
        return ChordNode(net, "us0", DhtConfig(proximity_routing=proximity),
                         rng.fork("chord"))

    def test_next_hop_prefers_local_on_near_tie(self):
        # A same-region candidate within 2x of the best remaining
        # distance wins the hop; the bias is bounded so routing still
        # makes strict progress.
        node = self._chord(proximity=True)
        target = (node.id + 1000) % MOD
        remote = NodeRef((node.id + 990) % MOD, "eu1")  # 10 from target
        local = NodeRef((node.id + 985) % MOD, "us1")  # 15 from target
        node.fingers = [remote, local]
        assert node.closest_preceding(target).address == "us1"

    def test_next_hop_flat_without_proximity(self):
        node = self._chord(proximity=False)
        target = (node.id + 1000) % MOD
        node.fingers = [NodeRef((node.id + 990) % MOD, "eu1"),
                        NodeRef((node.id + 985) % MOD, "us1")]
        assert node.closest_preceding(target).address == "eu1"

    def test_next_hop_far_local_candidate_loses(self):
        # Stretch bound: a local candidate more than 2x the best
        # remaining distance would lengthen the walk -- greedy wins.
        node = self._chord(proximity=True)
        target = (node.id + 1000) % MOD
        node.fingers = [NodeRef((node.id + 990) % MOD, "eu1"),
                        NodeRef((node.id + 975) % MOD, "us1")]
        assert node.closest_preceding(target).address == "eu1"

    def test_finger_slot_prefers_local_within_span(self):
        # PNS: any node in [start, start + 2^i) is a valid entry for
        # slot i, so a same-region candidate inside the span replaces a
        # cross-region canonical successor.
        node = self._chord(proximity=True)
        start = (node.id + (1 << 10)) % MOD
        canonical = NodeRef((start + 5) % MOD, "eu2")
        local = NodeRef((start + 50) % MOD, "us2")
        node.fingers = [local]
        assert node._proximity_finger(10, start, canonical).address == "us2"

    def test_finger_slot_keeps_canonical_outside_span(self):
        node = self._chord(proximity=True)
        start = (node.id + (1 << 10)) % MOD
        canonical = NodeRef((start + 5) % MOD, "eu2")
        outside = NodeRef((start + (1 << 10) + 7) % MOD, "us2")
        node.fingers = [outside]
        assert node._proximity_finger(10, start, canonical).address == "eu2"

    def test_finger_slot_keeps_same_region_canonical(self):
        node = self._chord(proximity=True)
        start = (node.id + (1 << 10)) % MOD
        canonical = NodeRef((start + 5) % MOD, "us3")
        node.fingers = [NodeRef((start + 2) % MOD, "us2")]
        assert node._proximity_finger(10, start, canonical) is canonical

    def test_region_rendezvous_agreement(self):
        # Every member of a region independently picks the SAME
        # in-region combiner for a routing key -- the region-local
        # level of the two-level aggregation tree.
        net = PierNetwork(
            seed=5, regions=two_region_map(per_region=3),
            config=PierConfig(dht=DhtConfig(proximity_routing=True)),
        )
        key = 0x1234567890 % MOD
        for region in ("us", "eu"):
            members = ["{}{}".format(region, i) for i in range(3)]
            picks = {net.node(a).chord.region_rendezvous(key).address
                     for a in members}
            assert len(picks) == 1
            rendezvous = picks.pop()
            assert rendezvous in members
            # The pick is the clockwise-first member: no closer one.
            ids = {a: net.node(a).chord.id for a in members}
            assert ids[rendezvous] == min(
                ids.values(), key=lambda i: distance_cw(key, i)
            )
        # A node outside the region computes the same meeting point.
        assert (net.node("us0").chord.region_rendezvous(key, "eu").address
                == net.node("eu0").chord.region_rendezvous(key).address)


# ----------------------------------------------------------------------
# Regional trees end to end
# ----------------------------------------------------------------------
EVERY = 10.0


def _standing_net(seed, variant, per_region=3, window=2 * EVERY):
    config = PierConfig(
        dht=DhtConfig(proximity_routing=(variant != "flat")),
        engine=EngineConfig(regional_trees=(variant == "regional")),
    )
    return _install_events(
        PierNetwork(seed=seed, config=config,
                    regions=two_region_map(per_region)), window)


def _install_events(net, window=2 * EVERY):
    net.create_stream_table(
        "events", [("bucket", "INT"), ("v", "FLOAT")], window=window + EVERY,
    )

    def make_tick(address, i):
        def tick():
            engine = net.node(address).engine
            engine.stream_append("events", (
                int(engine.clock.now // EVERY) % 3, float(i + 1),
            ))
            engine.set_timer(2.0, tick)

        return tick

    for i, address in enumerate(net.addresses()):
        net.node(address).engine.set_timer(0.1, make_tick(address, i))
    return net


def _submit(net, lifetime, results):
    sql = ("SELECT bucket, SUM(v) AS total, COUNT(*) AS n FROM events "
           "GROUP BY bucket EVERY {e} SECONDS WINDOW {w} SECONDS "
           "LIFETIME {l} SECONDS").format(
               e=int(EVERY), w=int(2 * EVERY), l=int(lifetime))
    handle = net.submit_sql(sql, node=net.any_address(),
                            on_epoch=results.append)
    assert handle.plan.standing and handle.plan.pane is not None
    return handle


def _epoch_rows(results):
    return {r.epoch: sorted((g, round(t, 6), n) for g, t, n in r.rows)
            for r in results}


def _tap_backbone(net, region_of):
    """Record every standing exchange message that crosses a region
    boundary: ``(epoch, pane, rid, source region) -> {mid}`` (a
    multi-hop or retransmitted forward reuses its id)."""
    crossing = {}
    inner_send = net.net.send

    def send(src, dst, payload):
        inner = getattr(payload, "payload", None)
        if (isinstance(inner, dict)
                and inner.get("op") in ("deliver", "deliver_batch")
                and inner.get("epoch") is not None
                and region_of(src) != region_of(dst)):
            key = (inner["epoch"], inner.get("pane"), inner.get("rid"),
                   region_of(src))
            crossing.setdefault(key, set()).add(inner.get("mid"))
        inner_send(src, dst, payload)

    net.net.send = send
    return crossing


class TestRegionalTrees:
    def test_one_partial_per_region_mid_run(self):
        """Backbone discipline: per (epoch, pane, group), each region
        ships one combined partial across a region boundary -- counted
        mid-run as distinct exchange message ids crossing the backbone
        (a multi-hop or retransmitted forward reuses its id)."""
        net = _standing_net(seed=23, variant="regional")
        net.advance(2 * EVERY)
        net.reset_counters()
        results = []
        _submit(net, lifetime=60.0, results=results)

        crossing = _tap_backbone(net, net.region_of)
        net.advance(45.0)  # mid-run: the query is still standing
        assert results, "no epochs reported mid-run"
        assert crossing, "nothing crossed the backbone"
        # One partial per region: no (epoch, pane, group, region) ships
        # more than one distinct message across the cut, stragglers
        # aside -- and virtually all ship exactly one.
        sizes = sorted(len(mids) for mids in crossing.values())
        assert sizes[-1] <= 2
        ones = sum(1 for s in sizes if s == 1)
        assert ones >= 0.9 * len(sizes)

    def test_tree_shape_follows_the_topology_not_a_flag(self):
        """Default config: a standing tree edge is two-level exactly
        when the testbed has region labels -- one partial per region
        crosses the backbone -- and single-level on an unlabelled one;
        ``regional_trees=False`` is the flat reference on the labelled
        testbed. All three give the same answers."""
        regions = two_region_map()
        flat_config = PierConfig(engine=EngineConfig(regional_trees=False))
        legs = {}
        for leg, kwargs in (
            ("labelled", {"regions": regions}),
            ("unlabelled", {"addresses": list(regions)}),
            ("flat", {"regions": regions, "config": flat_config}),
        ):
            net = _install_events(PierNetwork(seed=37, **kwargs))
            net.advance(2 * EVERY)
            results = []
            handle = _submit(net, lifetime=40.0, results=results)
            crossing = _tap_backbone(net, regions.get)
            net.advance(25.0)
            execution = net.node("us0").engine.queries[handle.qid].execution
            legs[leg] = {
                "regional": {op._regional for op in execution.ops.values()
                             if isinstance(op, Exchange)
                             and op.mode == "tree"},
                "crossing": crossing,
            }
            net.advance(15.0 + handle.plan.deadline + 5.0)
            legs[leg]["epochs"] = _epoch_rows(results)
        assert legs["labelled"]["regional"] == {True}
        assert legs["unlabelled"]["regional"] == {False}
        assert legs["flat"]["regional"] == {False}
        sizes = [len(m) for m in legs["labelled"]["crossing"].values()]
        assert sizes and max(sizes) <= 2
        assert sizes.count(1) >= 0.9 * len(sizes)
        # The flat tree ships more distinct partials over the same cut.
        assert (sum(len(m) for m in legs["flat"]["crossing"].values())
                > sum(sizes))
        assert len(legs["labelled"]["epochs"]) >= 3
        assert (legs["labelled"]["epochs"] == legs["unlabelled"]["epochs"]
                == legs["flat"]["epochs"])

    def test_regional_ships_fewer_cross_region_bytes(self):
        """Same seed, same workload: the two-level tree moves fewer
        exchange bytes across the backbone than the flat tree."""
        bytes_crossed = {}
        for variant in ("flat", "regional"):
            net = _standing_net(seed=29, variant=variant)
            net.advance(2 * EVERY)
            net.reset_counters()
            results = []
            _submit(net, lifetime=40.0, results=results)
            net.advance(60.0)
            assert len(results) >= 3
            bytes_crossed[variant] = net.message_counters().get(
                "exchange_cross_region_bytes", 0)
        assert 0 < bytes_crossed["regional"] < bytes_crossed["flat"]

    def test_partitioned_region_reflush_exact_parity(self):
        """Cut one region's backbone links for two epochs mid-run, then
        heal: epochs closing after the heal -- windows spanning the
        partition included -- must match a no-failure reference run
        exactly, because the cut region's increments landed at
        in-region pseudo-owners whose paned finals retained them
        (``PaneWindow.retain_panes``) and reflushed after the rejoin."""
        legs = {}
        for cut in (False, True):
            net = _standing_net(seed=31, variant="regional")
            net.advance(2 * EVERY)
            results = []
            handle = _submit(net, lifetime=60.0, results=results)
            if cut:
                net.clock.schedule(2.5 * EVERY, net.partition_region, "eu")
                net.clock.schedule(4.5 * EVERY, net.heal_region, "eu")
            net.advance(60.0 + handle.plan.deadline + 5.0)
            legs[cut] = {
                "epochs": _epoch_rows(results),
                "deadline": handle.plan.deadline,
                "drops": net.message_counters().get(
                    "messages_partitioned", 0),
            }
        reference, cut = legs[False], legs[True]
        assert cut["drops"] > 0, "the partition dropped nothing"
        assert set(cut["epochs"]) == set(reference["epochs"])
        heal_at = 4.5 * EVERY
        recovered = [k for k in sorted(reference["epochs"])
                     if k * EVERY >= heal_at + EVERY]
        assert recovered, "lifetime too short to observe recovery"
        for k in recovered:
            assert cut["epochs"][k] == reference["epochs"][k], (
                "post-heal epoch {} diverged: {!r} != {!r}".format(
                    k, cut["epochs"][k], reference["epochs"][k])
            )
        # Pre-cut epochs (fully closed before the cut) never degraded.
        pre = [k for k in sorted(reference["epochs"])
               if k * EVERY + reference["deadline"] < 2.5 * EVERY]
        for k in pre:
            assert cut["epochs"][k] == reference["epochs"][k]


# ----------------------------------------------------------------------
# Owner-cache region awareness (hop shortcuts across the backbone)
# ----------------------------------------------------------------------
class TestRegionOwnerCache:
    def test_cross_region_owner_ttl_is_capped(self):
        net = PierNetwork(seed=41, regions=two_region_map(),
                          config=PierConfig(
                              dht=DhtConfig(proximity_routing=True)))
        engine = net.node("us0").engine
        assert engine.region == "us"
        local_ref = NodeRef(net.node("us1").chord.id, "us1")
        remote_ref = NodeRef(net.node("eu1").chord.id, "eu1")
        engine._on_direct({"op": "xowner", "ns": "q|x|1", "rid": ("g",),
                           "ref": local_ref, "region": "us"}, "us1")
        engine._on_direct({"op": "xowner", "ns": "q|x|1", "rid": ("h",),
                           "ref": remote_ref, "region": "eu"}, "eu1")
        now = net.now
        assert CROSS_REGION_CACHE_TTL < ROUTE_CACHE_TTL
        _, local_expiry, local_region = engine.owners[
            ("q|x|1", ("g",))]
        _, remote_expiry, remote_region = engine.owners[
            ("q|x|1", ("h",))]
        assert local_region == "us" and remote_region == "eu"
        assert local_expiry == pytest.approx(now + ROUTE_CACHE_TTL)
        assert remote_expiry == pytest.approx(now + CROSS_REGION_CACHE_TTL)
        # Past the short TTL the backbone owner is forgotten, the
        # same-region one still trusted.
        net.advance(CROSS_REGION_CACHE_TTL + 1.0)
        assert engine.owners.learned("q|x|1", ("h",)) is None
        assert engine.owners.learned("q|x|1", ("g",)) == local_ref

    def test_killed_and_rejoined_region_is_not_pinned(self):
        """Regression: a cross-region owner learned before its region
        died must not pin post-rejoin forwards onto the stale entry --
        every cross-region cache entry expires on the short TTL, so
        after kill + rejoin + TTL no entry learned before the kill
        survives anywhere."""
        net = _standing_net(seed=43, variant="regional")
        net.advance(2 * EVERY)
        results = []
        _submit(net, lifetime=120.0, results=results)
        net.advance(30.0)  # warm the hop-shortcut caches mid-run

        ttl = CROSS_REGION_CACHE_TTL
        cross = [
            (address, entry)
            for address, node in net.nodes.items()
            for entry in node.engine.owners.values()
            if entry[2] is not None and entry[2] != node.engine.region
        ]
        assert cross, "no cross-region owner was ever learned"
        for address, (_ref, expiry, _region) in cross:
            assert expiry <= net.now + ttl, (
                "{}: cross-region entry outlives the capped TTL".format(
                    address)
            )

        kill_at = net.now
        victims = [a for a in net.addresses() if a.startswith("eu")]
        for victim in victims:
            net.crash_node(victim)
        net.advance(5.0)
        for victim in victims:
            net.recover_node(victim)
        net.advance(ttl + 5.0)

        for address, node in net.nodes.items():
            engine = node.engine
            for (ns, rid), entry in list(engine.owners.items()):
                ref, expiry, region = entry
                if (region == "eu" and region != engine.region
                        and expiry > net.now):
                    # A still-trusted backbone entry must have been
                    # learned after the rejoin; anything cached before
                    # the kill expired at kill_at + ttl < now and can
                    # no longer direct a forward (entries linger in the
                    # cache until swept, but ``learned`` refuses them).
                    assert expiry - ttl >= kill_at, (
                        "{}: stale eu owner {} pinned past the rejoin"
                        .format(address, ref.address)
                    )
                cached = engine.owners.learned(ns, rid)
                assert cached is None or net.net.is_alive(cached.address)
