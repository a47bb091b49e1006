"""The N-live-epoch ring: EpochStateRing, planner ring widths, the
generalized StandingExecution lifecycle, standing bloom joins, plan
fetch on storage probes, and exactly-once exchange delivery."""

import random

import pytest
from stubs import make_engine, make_standing

from repro.core import dataflow
from repro.core.dataflow import EpochStateRing, Operator, StandingExecution
from repro.core.network import PierNetwork
from repro.core.operators import register_operator
from repro.core.opgraph import OpSpec, QueryPlan
from repro.core.planner import _STANDING_XFER_MARGIN
from repro.dht.ring import DELIVERY_DEDUP_TTL, STORAGE_SWEEP_PERIOD


# ----------------------------------------------------------------------
# EpochStateRing unit behaviour
# ----------------------------------------------------------------------
class TestEpochStateRing:
    def test_state_created_on_first_touch_only(self):
        made = []
        ring = EpochStateRing(lambda: made.append(1) or {})
        assert ring.peek(3) is None and len(made) == 0
        state = ring.state(3)
        assert ring.state(3) is state and len(made) == 1
        assert 3 in ring and len(ring) == 1

    def test_seal_reclaims_and_runs_hook_once(self):
        sealed = []
        ring = EpochStateRing(dict, on_seal=sealed.append)
        state = ring.state(7)
        assert ring.seal(7) is state
        assert sealed == [state]
        assert ring.peek(7) is None
        assert ring.seal(7) is None  # idempotent, hook not re-run
        assert sealed == [state]

    def test_clear_seals_every_live_epoch(self):
        sealed = []
        ring = EpochStateRing(dict, on_seal=sealed.append)
        for e in (2, 0, 1):
            ring.state(e)
        assert ring.epochs() == [0, 1, 2]
        ring.clear()
        assert len(sealed) == 3 and len(ring) == 0

    def test_items_ascending(self):
        ring = EpochStateRing(list)
        for e in (5, 3, 4):
            ring.state(e).append(e)
        assert [e for e, _s in ring.items()] == [3, 4, 5]


# ----------------------------------------------------------------------
# Planner: ring width from the flush schedule
# ----------------------------------------------------------------------
@pytest.fixture
def net():
    n = PierNetwork(nodes=8, seed=321)
    n.create_stream_table("s", [("v", "FLOAT")], window=60.0)
    return n


GROUPED_SQL = ("SELECT SUM(v) AS total, COUNT(*) AS n FROM s "
               "EVERY {} SECONDS WINDOW 4 SECONDS LIFETIME 40 SECONDS")


class TestPlannerRingWidth:
    def test_random_periods_bracket_the_ring_width(self, net):
        """Property: for random periods, N is sufficient (every flush
        offset fits inside N periods) and minimal (N-1 periods do not
        cover the worst offset even with the largest margin)."""
        rng = random.Random(99)
        for _ in range(25):
            every = round(rng.uniform(0.8, 30.0), 2)
            plan = net.compile_sql(GROUPED_SQL.format(every))
            if not plan.standing:
                continue  # ring would exceed the planner's cap
            n = plan.epoch_overlap
            worst = max(plan.flush_offsets.values())
            assert n >= 1
            assert n * every >= worst, (every, n, worst)
            if n > 1:
                assert (n - 1) * every < worst + _STANDING_XFER_MARGIN, (
                    every, n, worst
                )

    def test_four_period_flush_schedule_runs_standing(self, net):
        # tree_xfer pushes the result flush to ~9.1s; a 2.5s period
        # means the schedule spans four periods -- exactly the shape
        # PR 3 forced back to rebuild, now standing with a wider ring.
        plan = net.compile_sql(GROUPED_SQL.format(2.5))
        assert plan.standing
        assert plan.epoch_overlap == 4

    def test_bloom_plans_are_standing_now(self, net):
        net.create_local_table("r", [("k", "INT"), ("v", "INT")])
        net.create_local_table("s2", [("k", "INT"), ("w", "INT")])
        plan = net.compile_sql(
            "SELECT r.v AS v, s2.w AS w FROM r, s2 WHERE r.k = s2.k "
            "EVERY 12 SECONDS LIFETIME 36 SECONDS",
            options={"join_strategy": "bloom"},
        )
        assert plan.ops_of_kind("bloom_stage")
        assert plan.standing

    def test_absurd_ratio_plans_true_horizon_engine_clamps(self, monkeypatch):
        # Sub-~0.6s periods against a ~9.1s horizon want dozens of live
        # epoch states. The plan records the *true* horizon; a standing
        # execution clamps the live width at dataflow.RING_MAX_OVERLAP.
        monkeypatch.setattr(dataflow, "RING_MAX_OVERLAP", 8)
        net = PierNetwork(nodes=8, seed=321)
        net.create_stream_table("s", [("v", "FLOAT")], window=60.0)
        plan = net.compile_sql(GROUPED_SQL.format(0.5))
        assert plan.standing
        assert plan.epoch_overlap > 16  # unclamped true horizon
        handle = net.submit_sql(GROUPED_SQL.format(0.5))
        net.advance(1.0)
        engine = net.node(net.addresses()[0]).engine
        execution = engine.queries[handle.qid].execution
        assert isinstance(execution, StandingExecution)
        assert execution.live_epochs == 8  # engine-side clamp
        handle.stop()


# ----------------------------------------------------------------------
# StandingExecution: open/seal ordering over random schedules
# ----------------------------------------------------------------------
@register_operator("ring_probe")
class RingProbe(Operator):
    """Records its lifecycle and keeps per-epoch state in a ring."""

    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        self.events = []
        self.ring = EpochStateRing(dict)

    def open_epoch(self, k, t_k):
        self.events.append(("open", k))
        self.ring.state(k)["opened_at"] = t_k

    def seal_epoch(self, k):
        self.events.append(("seal", k))
        self.ring.seal(k)


def drive_standing(n_live, every, offsets, boundaries):
    plan = QueryPlan(
        [OpSpec("p", "ring_probe")], "p", mode="continuous", every=every,
        flush_offsets={"p": o for o in offsets[:1]},
        epoch_overlap=n_live,
    )
    engine = make_engine()
    execution = make_standing(engine, plan)
    probe = execution.ops["p"]
    max_live = 0
    for k in range(1, boundaries + 1):
        engine.clock.run_until(k * every)
        execution.advance_epoch(k, k * every)
        max_live = max(max_live, len(execution._open_epochs))
        assert len(probe.ring) <= n_live
    return execution, probe, max_live


class TestStandingRingLifecycle:
    def test_random_schedules_respect_the_ring(self):
        """Property over random ring widths and periods: epochs open in
        order, epoch e is sealed exactly when e+N opens, never more
        than N states are live, and sealed state is reclaimed."""
        rng = random.Random(4321)
        for _ in range(20):
            n_live = rng.randint(1, 6)
            every = round(rng.uniform(0.5, 10.0), 2)
            boundaries = rng.randint(n_live + 1, 4 * n_live + 4)
            offsets = [round(rng.uniform(0.1, n_live * every), 2)]
            execution, probe, max_live = drive_standing(
                n_live, every, offsets, boundaries
            )
            opens = [k for kind, k in probe.events if kind == "open"]
            seals = [k for kind, k in probe.events if kind == "seal"]
            assert opens == list(range(1, boundaries + 1))
            assert seals == sorted(seals)  # sealed oldest-first
            # Epoch e seals exactly when e + n_live opens (epoch 0 was
            # opened by construction, so it seals with n_live).
            expected_seals = [
                e for e in range(0, boundaries - n_live + 1)
            ]
            assert seals == expected_seals
            for e in seals:
                seal_pos = probe.events.index(("seal", e))
                open_pos = probe.events.index(("open", e + n_live))
                assert seal_pos < open_pos  # sealed before the open wave
            assert max_live <= n_live
            # Only the newest n_live epochs still hold state.
            assert probe.ring.epochs() == sorted(
                execution._open_epochs
            )

    def test_seal_cancels_that_epochs_flush_timers(self):
        execution, _probe, _ = drive_standing(
            2, 5.0, offsets=[8.0], boundaries=4
        )
        live = set(execution._open_epochs)
        for epoch, timer in execution._flush_timers:
            assert epoch in live
            assert not timer.cancelled

    def test_late_tags_dropped_early_tags_parked(self):
        execution, probe, _ = drive_standing(
            3, 5.0, offsets=[12.0], boundaries=6
        )
        # Epochs 4, 5, 6 open; <= 3 sealed.
        ring_before = probe.ring.epochs()
        execution.deliver_batch("p", 0, [(1,)], epoch=2)  # late: sealed
        assert probe.ring.epochs() == ring_before
        execution.deliver_batch("p", 0, [(1,)], epoch=7)  # early: parked
        assert 7 in execution._early

    def test_rows_for_a_skipped_epoch_drop_as_late(self):
        # A held spine re-entered by a joiner jumps to the epoch in
        # progress: rows parked for, or arriving tagged with, an epoch
        # it skipped are late, not parked until close.
        execution, _probe, _ = drive_standing(
            1, 5.0, offsets=[1.0], boundaries=1
        )
        execution.deliver_batch("p", 0, [(1,)], epoch=2)  # early: parked
        assert 2 in execution._early
        execution.engine.clock.run_until(25.0)
        execution.advance_epoch(5, 25.0)
        execution.deliver_batch("p", 0, [(1,)], epoch=3)
        assert execution._early == {}
        for k in range(6, 9):
            execution.engine.clock.run_until(k * 5.0)
            execution.advance_epoch(k, k * 5.0)
        assert execution._early == {}
        assert execution.engine.ring_late_drops == 2


# ----------------------------------------------------------------------
# Standing bloom joins: ground-truth parity every epoch
# ----------------------------------------------------------------------
def run_bloom_continuous():
    net = PierNetwork(nodes=10, seed=5)
    net.create_local_table("r", [("k", "INT"), ("v", "INT")])
    net.create_local_table("s2", [("k", "INT"), ("w", "INT")])
    r_rows, s2_rows = [], []
    for i, address in enumerate(net.addresses()):
        r_frag = [((i + j) % 8, 10 + j) for j in range(3)]
        s2_frag = [((2 * i + j) % 16, 100 + j) for j in range(2)]
        net.insert(address, "r", r_frag)
        net.insert(address, "s2", s2_frag)
        r_rows.extend(r_frag)
        s2_rows.extend(s2_frag)
    results = []
    handle = net.submit_sql(
        "SELECT r.k AS k, r.v AS v, s2.w AS w FROM r, s2 WHERE r.k = s2.k "
        "EVERY 12 SECONDS LIFETIME 36 SECONDS",
        on_epoch=results.append, options={"join_strategy": "bloom"},
    )
    assert handle.plan.standing
    net.advance(14)
    engine = net.node(net.addresses()[4]).engine
    execution = engine.queries[handle.qid].execution
    assert isinstance(execution, StandingExecution)
    net.advance(36 + handle.plan.deadline + 5 - 14)
    expected = sorted(
        (rk, rv, w) for rk, rv in r_rows for sk, w in s2_rows if rk == sk
    )
    return {r.epoch: sorted(r.rows) for r in results}, expected


class TestStandingBloom:
    def test_bloom_plan_standing_epochs_match_ground_truth(self):
        # Local tables never age, so every epoch must reproduce the
        # full join computed here from the inserted fragments.
        per_epoch, expected = run_bloom_continuous()
        assert len(per_epoch) >= 3
        assert expected  # the join actually produces rows
        for epoch, rows in per_epoch.items():
            assert rows == expected, epoch

    def test_per_epoch_filter_round_trip(self):
        # Every epoch gets its own merged-filter broadcast (the old
        # wiring only drove epoch 0), tagged with that epoch.
        net = PierNetwork(nodes=10, seed=5)
        net.create_local_table("r", [("k", "INT"), ("v", "INT")])
        net.create_local_table("s2", [("k", "INT"), ("w", "INT")])
        for i, address in enumerate(net.addresses()):
            net.insert(address, "r", [((i + j) % 8, 10 + j) for j in range(3)])
            net.insert(address, "s2", [(i % 16, 100)])
        seen = []
        site = net.any_address()
        handle = net.submit_sql(
            "SELECT r.v AS v, s2.w AS w FROM r, s2 WHERE r.k = s2.k "
            "EVERY 12 SECONDS LIFETIME 36 SECONDS",
            node=site, options={"join_strategy": "bloom"},
        )
        original = net.node(site).chord.broadcast

        def spy(payload):
            if isinstance(payload, dict) and payload.get("ctl") == "bloom":
                seen.append(payload["epoch"])
            original(payload)

        net.node(site).chord.broadcast = spy
        net.advance(36 + handle.plan.deadline + 5)
        assert sorted(set(seen)) >= [1, 2, 3]


# ----------------------------------------------------------------------
# Exactly-once exchange delivery
# ----------------------------------------------------------------------
class TestExactlyOnceDelivery:
    """The overlay consumes a routed payload's delivery id before its
    one ``on_deliver`` upcall; the engine, which owns that upcall,
    hands the payload to the input that claimed its namespace."""

    @staticmethod
    def arrival(payload):
        class Msg:
            origin = None
            key = 0
            force_terminal = False

        message = Msg()
        message.payload = payload
        return message

    @staticmethod
    def claim(engine, ns):
        got = []
        engine._inputs[ns] = lambda p, m: got.append(p)
        return got

    def test_replayed_delivery_dropped_at_the_door(self):
        net = PierNetwork(nodes=4, seed=11)
        chord = net.node(net.addresses()[1]).chord
        got = []
        chord.on_deliver(lambda p, m: got.append(p))
        arrival = self.arrival({"op": "deliver", "ns": "q|x#1|op9|0",
                                "rid": ("k",), "data": (1,),
                                "mid": ("node0", 42)})
        chord._route_arrived(arrival)
        chord._route_arrived(arrival)  # re-forward after a lost hop ack
        assert len(got) == 1

    def test_mids_age_out(self):
        net = PierNetwork(nodes=4, seed=11)
        chord = net.node(net.addresses()[0]).chord
        assert chord.accept_delivery_once(("a", 1))
        assert not chord.accept_delivery_once(("a", 1))
        net.advance(DELIVERY_DEDUP_TTL + STORAGE_SWEEP_PERIOD + 1)
        assert ("a", 1) not in chord._seen_mids  # swept
        assert chord.accept_delivery_once(("a", 1))

    def test_exchange_payloads_carry_mids(self):
        net = PierNetwork(nodes=4, seed=11)
        net.create_local_table("t", [("v", "INT")])
        net.insert(net.addresses()[0], "t", [(1,), (2,)])
        sent = []
        for address in net.addresses():
            chord = net.node(address).chord
            original = chord.route

            def spy(key, payload, upcall=None, _orig=original):
                if payload.get("op") in ("deliver", "deliver_batch"):
                    sent.append(payload)
                _orig(key, payload, upcall)

            chord.route = spy
        net.run_sql("SELECT v, COUNT(*) AS n FROM t GROUP BY v")
        assert sent
        assert all(p.get("mid") is not None for p in sent)
        assert len({p["mid"] for p in sent}) == len(sent)

    def test_leave_hands_consumed_mids_to_the_successor(self):
        # A graceful leave ships the consumed-mid set with the storage
        # handoff, so a delivery retried against the heir is still
        # dropped -- exactly-once survives the ownership transfer.
        net = PierNetwork(nodes=4, seed=11)
        node = net.node(net.addresses()[1])
        heir = net.node(node.chord.successor.address)
        got = self.claim(node.engine, "q|x#1|op9|0")
        arrival = self.arrival({"op": "deliver", "ns": "q|x#1|op9|0",
                                "rid": ("k",), "data": (1,),
                                "mid": ("node9", 77)})
        node.chord._route_arrived(arrival)
        assert len(got) == 1
        node.chord.leave()
        net.advance(1.0)  # StoreItems lands at the successor
        assert ("node9", 77) in heir.chord._seen_mids
        heir_got = self.claim(heir.engine, "q|x#1|op9|0")
        heir.chord._route_arrived(arrival)  # the retry chases the heir
        assert not heir_got

    def test_handed_off_mids_merge_keeps_later_deadline(self):
        from repro.dht import messages as msg

        net = PierNetwork(nodes=4, seed=11)
        a, b = net.addresses()[0], net.addresses()[1]
        receiver = net.node(b).chord
        receiver._seen_mids[("x", 1)] = net.now + 5.0
        net.node(a).chord.send(b, msg.StoreItems([], mids={
            ("x", 1): net.now + 50.0,  # later deadline wins
            ("y", 2): net.now + 10.0,  # new entry adopted
        }))
        net.advance(1.0)
        assert receiver._seen_mids[("x", 1)] == pytest.approx(net.now + 49.0)
        assert ("y", 2) in receiver._seen_mids
        receiver._seen_mids[("y", 2)] = net.now + 100.0
        net.node(a).chord.send(b, msg.StoreItems([], mids={
            ("y", 2): net.now + 1.0,  # earlier deadline must NOT regress
        }))
        net.advance(1.0)
        assert receiver._seen_mids[("y", 2)] == pytest.approx(net.now + 99.0)
