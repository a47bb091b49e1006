"""Node lifecycle, timers, periodic processes, churn."""

import pytest

from repro.sim.churn import ChurnConfig, ChurnProcess
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from repro.sim.node import SimNode
from repro.sim.processes import PeriodicProcess
from repro.util.rng import SeededRng


class Dummy(SimNode):
    def handle_message(self, src, payload):
        pass


@pytest.fixture
def net(clock):
    return Network(clock, ConstantLatency(0.01))


class TestNodeTimers:
    def test_timer_fires(self, net, clock):
        node = Dummy(net, "a")
        fired = []
        node.set_timer(1.0, fired.append, "x")
        clock.run_until(2)
        assert fired == ["x"]

    def test_timer_cancel(self, net, clock):
        node = Dummy(net, "a")
        fired = []
        timer = node.set_timer(1.0, fired.append, "x")
        timer.cancel()
        clock.run_until(2)
        assert fired == []

    def test_crash_cancels_timers(self, net, clock):
        node = Dummy(net, "a")
        fired = []
        node.set_timer(1.0, fired.append, "x")
        node.crash()
        clock.run_until(2)
        assert fired == []

    def test_dead_node_does_not_send(self, net, clock):
        a = Dummy(net, "a")
        Dummy(net, "b")
        a.crash()
        a.send("b", "x")
        clock.run_until(1)
        assert net.counters.get("messages_sent") == 0

    def test_recover_marks_alive(self, net):
        node = Dummy(net, "a")
        node.crash()
        assert not node.alive
        node.recover()
        assert node.alive


class TestTimerGroups:
    """The timers one node sets for one instant share one clock event,
    and each still fires exactly where an event of its own would."""

    def test_same_instant_timers_share_one_event_in_order(self, net, clock):
        node = Dummy(net, "a")
        fired = []
        for i in range(5):
            node.set_timer(1.0, fired.append, i)
        assert clock.pending == 1
        clock.run_until(2)
        assert fired == [0, 1, 2, 3, 4]
        assert clock.events_fired == 1
        assert not clock.open_groups  # a fired group is closed

    def test_an_event_for_another_instant_does_not_split_a_group(self, net, clock):
        node = Dummy(net, "a")
        fired = []
        node.set_timer(1.0, fired.append, "a1")
        clock.schedule(2.0, fired.append, "later")
        node.set_timer(1.0, fired.append, "a2")
        assert clock.pending == 2
        clock.run_until(3)
        assert fired == ["a1", "a2", "later"]

    def test_an_event_between_two_timers_fires_between_them(self, net, clock):
        a, b = Dummy(net, "a"), Dummy(net, "b")
        fired = []
        a.set_timer(1.0, fired.append, "a1")
        clock.schedule(1.0, fired.append, "event")
        a.set_timer(1.0, fired.append, "a2")
        b.set_timer(1.0, fired.append, "b1")
        a.set_timer(1.0, fired.append, "a3")
        a.set_timer(1.0, fired.append, "a4")
        clock.run_until(2)
        assert fired == ["a1", "event", "a2", "b1", "a3", "a4"]
        assert clock.events_fired == 5

    def test_zero_delay_timer_armed_while_firing_goes_last(self, net, clock):
        a, b = Dummy(net, "a"), Dummy(net, "b")
        fired = []

        def arm():
            fired.append("arm")
            a.set_timer(0.0, fired.append, "zero")

        a.set_timer(1.0, arm)
        a.set_timer(1.0, fired.append, "a2")
        b.set_timer(1.0, fired.append, "b1")
        clock.schedule(1.0, fired.append, "event")
        clock.run_until(2)
        # The zero-delay timer is a new group behind everything that
        # was already due at t=1, its node's own group included.
        assert fired == ["arm", "a2", "b1", "event", "zero"]

    def test_cancelling_one_member_keeps_the_others(self, net, clock):
        node = Dummy(net, "a")
        fired = []
        timers = [node.set_timer(1.0, fired.append, i) for i in range(3)]
        timers[1].cancel()
        clock.run_until(2)
        assert fired == [0, 2]
        assert [t.cancelled for t in timers] == [False, True, False]

    def test_timer_reads_time_and_cancelled(self, net, clock):
        node = Dummy(net, "a")
        clock.run_until(0.5)
        first = node.set_timer(1.0, lambda: None)
        second = node.set_timer(1.0, lambda: None)
        assert (first.time, second.time) == (1.5, 1.5)
        assert not first.cancelled and not second.cancelled
        second.cancel()
        assert second.cancelled and not first.cancelled
        clock.run_until(2)
        assert not first.cancelled

    def test_crash_cancels_every_group_even_a_superseded_one(self, net, clock):
        a, b = Dummy(net, "a"), Dummy(net, "b")
        fired = []
        before = [a.set_timer(1.0, fired.append, "a1")]
        b.set_timer(1.0, fired.append, "b1")  # a's first group is closed
        before.append(a.set_timer(1.0, fired.append, "a2"))
        before.append(a.set_timer(3.0, fired.append, "a3"))
        a.crash()
        assert all(timer.cancelled for timer in before)
        assert clock.pending == 1  # b's group
        a.recover()
        after = a.set_timer(1.0, fired.append, "after")
        clock.run_until(5)
        assert fired == ["b1", "after"]
        assert not after.cancelled


class TestPeriodicProcess:
    def test_ticks_at_period(self, clock):
        ticks = []
        p = PeriodicProcess(clock, 2.0, lambda: ticks.append(clock.now))
        p.start()
        clock.run_until(7)
        assert ticks == [2.0, 4.0, 6.0]

    def test_initial_delay(self, clock):
        ticks = []
        p = PeriodicProcess(clock, 2.0, lambda: ticks.append(clock.now),
                            initial_delay=0.5)
        p.start()
        clock.run_until(3)
        assert ticks == [0.5, 2.5]

    def test_stop(self, clock):
        ticks = []
        p = PeriodicProcess(clock, 1.0, lambda: ticks.append(1))
        p.start()
        clock.run_until(2.5)
        p.stop()
        clock.run_until(10)
        assert len(ticks) == 2

    def test_callback_can_stop_itself(self, clock):
        ticks = []

        def tick():
            ticks.append(clock.now)
            p.stop()

        p = PeriodicProcess(clock, 1.0, tick)
        p.start()
        clock.run_until(5)
        assert len(ticks) == 1

    def test_double_start_is_noop(self, clock):
        ticks = []
        p = PeriodicProcess(clock, 1.0, lambda: ticks.append(1))
        p.start()
        p.start()
        clock.run_until(1.5)
        assert len(ticks) == 1

    def test_jitter_spreads_first_tick(self, clock):
        rng = SeededRng(1)
        ticks = []
        p = PeriodicProcess(clock, 10.0, lambda: ticks.append(clock.now),
                            jitter_rng=rng)
        p.start()
        clock.run_until(16)
        assert len(ticks) == 1
        assert 5.0 <= ticks[0] <= 15.0

    def test_rejects_bad_period(self, clock):
        with pytest.raises(ValueError):
            PeriodicProcess(clock, 0, lambda: None)


class TestChurn:
    def test_alternates_leave_join(self, clock):
        rng = SeededRng(5)
        events = []
        churn = ChurnProcess(
            clock, ChurnConfig(mean_session=10, mean_downtime=5), rng,
            on_leave=lambda a: events.append(("leave", a)),
            on_join=lambda a: events.append(("join", a)),
        )
        churn.manage("a")
        churn.start()
        clock.run_until(200)
        assert churn.leaves > 3
        assert abs(churn.leaves - churn.joins) <= 1
        # Strict alternation per node.
        kinds = [k for k, _ in events]
        for i in range(1, len(kinds)):
            assert kinds[i] != kinds[i - 1]

    def test_stop_halts_events(self, clock):
        rng = SeededRng(5)
        churn = ChurnProcess(
            clock, ChurnConfig(1, 1), rng, lambda a: None, lambda a: None
        )
        churn.manage("a")
        churn.start()
        clock.run_until(10)
        leaves = churn.leaves
        churn.stop()
        clock.run_until(50)
        assert churn.leaves == leaves

    def test_manage_after_start(self, clock):
        rng = SeededRng(6)
        churn = ChurnProcess(
            clock, ChurnConfig(1, 1), rng, lambda a: None, lambda a: None
        )
        churn.start()
        churn.manage("late")
        clock.run_until(20)
        assert churn.leaves > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChurnConfig(mean_session=0)
