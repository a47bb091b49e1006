"""Counters for the simulator's and the DHT's message and byte totals."""


class Counter:
    """A named bag of monotonically increasing counters.

    The simulator and DHT use one of these per experiment to report
    message/byte totals without threading dozens of integers through
    call signatures.
    """

    def __init__(self):
        self._counts = {}

    def add(self, name, amount=1):
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name):
        return self._counts.get(name, 0)

    def as_dict(self):
        return dict(self._counts)

    def __repr__(self):
        return "Counter({})".format(self._counts)
