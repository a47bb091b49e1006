"""Ground truth for a Chord ring, computed from the sorted node ids.

Tests compare what the protocol converged to with what the ids
dictate; nothing in ``src/`` needs either answer.
"""

from repro.util.ids import in_interval


def ring_is_consistent(nodes):
    """True when the live nodes' successor pointers form the single
    cycle that sorted ids dictate."""
    live = sorted((n for n in nodes if n.alive), key=lambda n: n.id)
    if not live:
        return True
    n = len(live)
    for i, node in enumerate(live):
        expected = live[(i + 1) % n]
        if n == 1:
            expected = node
        if node.successor != expected.ref:
            return False
    return True


def owner_of(nodes, key):
    """The live node that owns ``key``."""
    live = sorted((n for n in nodes if n.alive), key=lambda n: n.id)
    if not live:
        return None
    for node in live:
        prev = live[live.index(node) - 1]
        if in_interval(key, prev.id, node.id, inclusive_hi=True):
            return node
    return live[0]
