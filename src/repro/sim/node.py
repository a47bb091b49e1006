"""Base class for simulated nodes.

A node owns an address, a liveness flag and a set of timers. Subclasses
(DHT nodes, PIER engines) override :meth:`handle_message`. Crashing a
node cancels its timers and silences delivery, matching a fail-stop
model; a node that rejoins does so with fresh state (PIER keeps only
soft state, so this is exactly the paper's recovery story).
"""


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
        self._timers = set()
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
        """Schedule a callback that auto-cancels if this node crashes."""
        event = None

        def fire():
            self._timers.discard(event)
            if self.alive:
                callback(*args)

        event = self.clock.schedule(delay, fire)
        self._timers.add(event)
        return event

    def cancel_timer(self, event):
        event.cancel()
        self._timers.discard(event)

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def crash(self):
        """Fail-stop: drop all timers and stop receiving messages."""
        self.alive = False
        for event in self._timers:
            event.cancel()
        self._timers.clear()

    def recover(self):
        """Mark the node live again; subclasses re-run their join logic."""
        self.alive = True

    def __repr__(self):
        state = "up" if self.alive else "down"
        return "{}(address={!r}, {})".format(type(self).__name__, self.address, state)
