"""Periodic background processes (stabilization, metric publication)."""


class PeriodicProcess:
    """Calls ``callback`` every ``period`` seconds until stopped.

    The first firing happens after ``initial_delay`` (default: one full
    period, optionally jittered so that 300 nodes' stabilizers do not
    fire in lockstep -- synchronized maintenance is both unrealistic and
    a simulator hot-spot).
    """

    def __init__(self, clock, period, callback, initial_delay=None, jitter_rng=None):
        if period <= 0:
            raise ValueError("period must be positive")
        self.clock = clock
        self.period = period
        self.callback = callback
        self._running = False
        self._event = None
        self._jitter_rng = jitter_rng
        if initial_delay is None:
            initial_delay = period
        self._initial_delay = initial_delay

    def start(self):
        if self._running:
            return
        self._running = True
        delay = self._initial_delay
        if self._jitter_rng is not None:
            delay *= self._jitter_rng.uniform(0.5, 1.5)
        self._event = self.clock.schedule(delay, self._tick)

    def stop(self):
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self):
        if not self._running:
            return
        self.callback()
        if self._running:  # callback may have stopped us
            self._event = self.clock.schedule(self.period, self._tick)
