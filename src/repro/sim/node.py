"""Base class for simulated nodes.

A node owns an address, a liveness flag and its pending timer groups:
the timers it sets for one instant share one clock event (see
:meth:`SimNode.set_timer`). Subclasses (DHT nodes, PIER engines)
override :meth:`handle_message`. Crashing a node cancels its timers and
silences delivery, matching a fail-stop model; a node that rejoins does
so with fresh state (PIER keeps only soft state, so this is exactly the
paper's recovery story).
"""

from repro.sim.events import Event
from repro.util.errors import SimulationError


class SimNode:
    """A network endpoint with timers and fail-stop semantics."""

    def __init__(self, network, address):
        self.network = network
        self.clock = network.clock
        self.address = address
        # Region label from the latency model, when the topology has
        # one (RegionalLatency); the stand-in for the proximity service
        # a deployment would consult.
        self.region = network.latency.region_of(address)
        self.alive = True
        # Pending timer groups, each keyed by its first timer; a
        # group's clock event has the group's timer list as its one
        # argument.
        self._groups = {}
        network.register(self)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, dst, payload):
        if self.alive:
            self.network.send(self.address, dst, payload)

    def handle_message(self, src, payload):
        raise NotImplementedError("subclasses handle their own messages")

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def set_timer(self, delay, callback, *args):
        """Run ``callback(*args)`` in ``delay`` seconds unless this node
        crashes first; return the timer, an :class:`Event` to
        ``cancel()``.

        The timers a node sets for one instant share one clock event
        and fire in the order they were set. A timer joins its node's
        group only while that group is still the newest event due at
        its instant (``SimClock.open_groups``): any other event
        scheduled for that instant, and the group's own firing, retire
        it, and the next timer opens a new group. So every timer fires
        exactly where a clock event of its own would have.
        """
        if delay < 0:
            raise SimulationError("cannot schedule {}s in the past".format(delay))
        clock = self.clock
        time = clock.now + delay
        timer = Event(time, None, callback, args)
        open_groups = clock.open_groups
        if time in open_groups and open_groups[time][0] is self:
            open_groups[time][1].append(timer)
        else:
            timers = [timer]
            self._groups[timer] = clock.schedule_at(time, self._fire, timers)
            open_groups[time] = (self, timers)
        return timer

    def _fire(self, timers):
        del self._groups[timers[0]]
        self._retire(timers)
        for timer in timers:
            if self.alive and not timer.cancelled:
                timer.callback(*timer.args)

    def _retire(self, timers):
        """Close ``timers``' group to joiners if it is still open."""
        open_groups = self.clock.open_groups
        time = timers[0].time
        if time in open_groups and open_groups[time][1] is timers:
            del open_groups[time]

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def crash(self):
        """Fail-stop: drop all timers and stop receiving messages."""
        self.alive = False
        for group in self._groups.values():
            (timers,) = group.args
            self._retire(timers)
            for timer in timers:
                timer.cancel()
            group.cancel()
        self._groups.clear()

    def recover(self):
        """Mark the node live again; subclasses re-run their join logic."""
        self.alive = True

    def __repr__(self):
        state = "up" if self.alive else "down"
        return "{}(address={!r}, {})".format(type(self).__name__, self.address, state)
