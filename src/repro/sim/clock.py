"""The simulation clock: a heap-based discrete-event scheduler.

Time is a float in *seconds* of simulated time. The clock only advances
when :meth:`run_until` / :meth:`run` pops events; there is no real-time
component anywhere, so a 30-minute PlanetLab experiment completes in
however long its events take to process.

Node timers ride the same heap in groups: the timers one node sets for
one instant share one event (:meth:`repro.sim.node.SimNode.set_timer`).
The clock only keeps the group still open at each instant, in
``SimClock.open_groups``, and closes it when anything else is
scheduled for that instant, so a later timer cannot jump the queue.
"""

import heapq

from repro.sim.events import Event
from repro.util.errors import SimulationError


class SimClock:
    """Single-threaded discrete-event scheduler."""

    def __init__(self):
        self._now = 0.0
        self._heap = []
        self._seq = 0
        self._events_fired = 0
        # instant -> (node, timer list) of the node-timer group that is
        # still the newest event due at that instant; SimNode joins and
        # retires groups, schedule_at retires one it overtakes.
        self.open_groups = {}

    @property
    def now(self):
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending(self):
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for _, _, event in self._heap if not event.cancelled)

    @property
    def events_fired(self):
        return self._events_fired

    def schedule(self, delay, callback, *args):
        """Run ``callback(*args)`` after ``delay`` seconds of sim time."""
        if delay < 0:
            raise SimulationError("cannot schedule {}s in the past".format(delay))
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        """Run ``callback(*args)`` at absolute sim time ``time``."""
        if time < self._now:
            raise SimulationError(
                "cannot schedule at t={} before now={}".format(time, self._now)
            )
        if time in self.open_groups:
            del self.open_groups[time]
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args)
        # Tuples order in C and ``seq`` is unique, so the heap never
        # compares two events.
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def run_until(self, time):
        """Fire every event with timestamp <= ``time``, then set now=time."""
        if time < self._now:
            raise SimulationError(
                "cannot run backwards to t={} from now={}".format(time, self._now)
            )
        heap = self._heap
        while heap and heap[0][0] <= time:
            when, _, event = heapq.heappop(heap)
            if event.cancelled:
                continue
            self._now = when
            self._events_fired += 1
            event.callback(*event.args)
        self._now = time

    def run_for(self, duration):
        """Advance the clock by ``duration`` seconds."""
        self.run_until(self._now + duration)

    def run(self, max_events=None):
        """Drain the queue entirely (or up to ``max_events`` firings)."""
        fired = 0
        while self._heap:
            if max_events is not None and fired >= max_events:
                break
            when, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = when
            self._events_fired += 1
            event.callback(*event.args)
            fired += 1
        return fired

    def __repr__(self):
        return "SimClock(now={:.3f}, pending={})".format(self._now, self.pending)
