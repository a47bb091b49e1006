"""Event records for the simulator's priority queue."""


class Event:
    """A scheduled callback, or one node timer.

    The clock's heap holds ``(time, seq, event)`` tuples, so events
    order by ``(time, seq)`` without ever being compared themselves;
    the sequence number makes ties deterministic (FIFO among events
    scheduled for the same instant), which in turn makes whole
    experiments reproducible from a seed.

    Cancellation is lazy: :meth:`cancel` marks the event and the clock
    skips it when popped, which is O(1) instead of an O(n) heap removal.

    A node timer (:meth:`repro.sim.node.SimNode.set_timer`) is an event
    too, but not a heap entry of its own: it rides its group's event,
    which fires the group's live timers in the order they were set. Its
    ``seq`` is None; its ``time``, ``cancelled`` and :meth:`cancel` read
    and act as for any event.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time, seq, callback, args):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True
        # Drop references so cancelled events pinned in the heap do not
        # keep large payloads (query state, tuples) alive.
        self.callback = None
        self.args = ()

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        return "Event(t={:.6f}, seq={}, {})".format(self.time, self.seq, state)
