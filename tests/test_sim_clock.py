"""Discrete-event clock: ordering, cancellation, time semantics."""

import gc
import heapq
import weakref

import pytest

from repro.util.errors import SimulationError
from repro.util.rng import SeededRng


class TestScheduling:
    def test_fires_in_time_order(self, clock):
        fired = []
        clock.schedule(3.0, fired.append, "c")
        clock.schedule(1.0, fired.append, "a")
        clock.schedule(2.0, fired.append, "b")
        clock.run_until(10)
        assert fired == ["a", "b", "c"]

    def test_ties_fire_fifo(self, clock):
        fired = []
        for label in "abc":
            clock.schedule(1.0, fired.append, label)
        clock.run_until(2)
        assert fired == ["a", "b", "c"]

    def test_now_advances_to_event_time(self, clock):
        seen = []
        clock.schedule(2.5, lambda: seen.append(clock.now))
        clock.run_until(5)
        assert seen == [2.5]
        assert clock.now == 5

    def test_schedule_at_absolute(self, clock):
        fired = []
        clock.schedule_at(4.0, fired.append, "x")
        clock.run_until(3.9)
        assert fired == []
        clock.run_until(4.0)
        assert fired == ["x"]

    def test_negative_delay_rejected(self, clock):
        with pytest.raises(SimulationError):
            clock.schedule(-0.1, lambda: None)

    def test_past_absolute_time_rejected(self, clock):
        clock.run_until(5)
        with pytest.raises(SimulationError):
            clock.schedule_at(4.9, lambda: None)

    def test_running_backwards_rejected(self, clock):
        clock.run_until(5)
        with pytest.raises(SimulationError):
            clock.run_until(4)

    def test_events_scheduled_during_event_fire_same_run(self, clock):
        fired = []

        def outer():
            clock.schedule(1.0, fired.append, "inner")

        clock.schedule(1.0, outer)
        clock.run_until(3)
        assert fired == ["inner"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, clock):
        fired = []
        event = clock.schedule(1.0, fired.append, "x")
        event.cancel()
        clock.run_until(2)
        assert fired == []

    def test_cancelled_event_drops_payload_references(self, clock):
        big = ["payload"]
        event = clock.schedule(1.0, big.append, "x")
        event.cancel()
        assert event.args == ()
        assert event.callback is None

    def test_pending_excludes_cancelled(self, clock):
        keep = clock.schedule(1.0, lambda: None)
        drop = clock.schedule(1.0, lambda: None)
        drop.cancel()
        assert clock.pending == 1
        keep.cancel()
        assert clock.pending == 0


class TestRun:
    def test_run_drains_everything(self, clock):
        fired = []
        for i in range(5):
            clock.schedule(float(i), fired.append, i)
        count = clock.run()
        assert count == 5
        assert fired == [0, 1, 2, 3, 4]

    def test_run_max_events(self, clock):
        for i in range(5):
            clock.schedule(float(i), lambda: None)
        assert clock.run(max_events=2) == 2
        assert clock.pending == 3

    def test_run_for_advances_relative(self, clock):
        clock.run_until(2)
        clock.run_for(3)
        assert clock.now == 5

    def test_events_fired_counter(self, clock):
        clock.schedule(1, lambda: None)
        clock.schedule(2, lambda: None)
        clock.run_until(10)
        assert clock.events_fired == 2


class _OrderedEvent:
    """The event as it was when the heap ordered events themselves."""

    def __init__(self, time, seq, callback, args):
        self.time, self.seq = time, seq
        self.callback, self.args = callback, args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True
        self.callback, self.args = None, ()

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class _OracleClock:
    """The scheduler before its heap held ``(time, seq, event)`` tuples."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = 0
        self.events_fired = 0

    @property
    def pending(self):
        return sum(1 for e in self._heap if not e.cancelled)

    def schedule(self, delay, callback, *args):
        event = _OrderedEvent(self.now + delay, self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def run_until(self, time):
        while self._heap and self._heap[0].time <= time:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.now = event.time
            self.events_fired += 1
            event.callback(*event.args)
        self.now = time


def _scripted_run(clock, seed):
    """A seeded schedule dense in ties, cancels and re-entrant scheduling."""
    rng = SeededRng(seed, "clock-script")
    log, live = [], []

    def fire(label, fanout):
        log.append((clock.now, label))
        for child in range(fanout):
            live.append(clock.schedule(
                rng.choice((0.0, 0.5, 0.5, 1.0)), fire,
                "{}.{}".format(label, child), rng.randint(0, 1)))
        if live and rng.random() < 0.4:
            live.pop(rng.randrange(len(live))).cancel()

    for label in range(60):
        live.append(clock.schedule(
            rng.choice((0.0, 1.0, 1.0, 2.5, 4.0)), fire, str(label),
            rng.randint(0, 2)))
    checkpoints = []
    for until in (0.0, 1.0, 1.0, 2.0, 3.5, 9.0):
        for event in rng.sample(live, min(5, len(live))):
            event.cancel()  # some have fired already: a no-op then
        clock.run_until(until)
        checkpoints.append((clock.now, clock.pending, clock.events_fired))
    return log, checkpoints


class TestTupleHeap:
    @pytest.mark.parametrize("seed", range(5))
    def test_scripted_schedule_matches_event_ordered_heap(self, clock, seed):
        log, checkpoints = _scripted_run(clock, seed)
        oracle_log, oracle_checkpoints = _scripted_run(_OracleClock(), seed)
        assert log == oracle_log
        assert checkpoints == oracle_checkpoints
        assert len(log) > 60 and checkpoints[-1][1] == 0

    def test_ties_never_compare_events_or_payloads(self, clock):
        fired = []
        for label in range(50):
            # dicts and lambdas have no ordering: a tie that fell through
            # to them would raise TypeError inside heapq.
            clock.schedule(1.0, lambda d: fired.append(d["label"]),
                           {"label": label})
        clock.run_until(1.0)
        assert fired == list(range(50))

    def test_cancelled_event_releases_payload_while_queued(self, clock):
        class Payload:
            pass

        payload = Payload()
        gone = weakref.ref(payload)
        fired = []
        event = clock.schedule(5.0, fired.append, payload)
        del payload
        event.cancel()
        gc.collect()
        assert gone() is None  # still in the heap, holding nothing
        assert clock.pending == 0
        clock.run_until(10.0)
        assert fired == [] and clock.events_fired == 0
