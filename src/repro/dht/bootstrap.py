"""Ring construction.

Two ways to stand up a Chord overlay:

* :func:`join_chord_ring` -- the real protocol: nodes join one at a time
  through a bootstrap node and the ring converges via stabilization.
  Used by correctness tests and churn experiments (a recovering node
  always rejoins this way).
* :func:`build_chord_ring` -- an oracle: sorts the ids and installs
  exact successors, predecessors and fingers directly. Used to stand up
  300-1000 node benchmark rings instantly; the periodic protocol then
  *maintains* the ring, so steady-state behaviour is identical.
"""

from repro.dht.ring import STABILIZE_PERIOD, SUCCESSOR_LIST_LENGTH
from repro.util.ids import ID_BITS, distance_cw


def build_chord_ring(nodes, start_maintenance=True):
    """Wire ``nodes`` (list of ChordNode) into a perfect ring in place."""
    if not nodes:
        return
    ordered = sorted(nodes, key=lambda n: n.id)
    n = len(ordered)
    refs = [node.ref for node in ordered]
    for i, node in enumerate(ordered):
        succ_list = [refs[(i + j) % n] for j in range(1, SUCCESSOR_LIST_LENGTH + 1)]
        if n == 1:
            succ_list = [node.ref]
        node.successors = succ_list
        node.predecessor = refs[(i - 1) % n]
        node.fingers = _exact_fingers(node, refs, i)
        # Everyone can rejoin through the lowest-id node after a crash.
        node._bootstrap_address = ordered[0].address if n > 1 else None
    if start_maintenance:
        for node in ordered:
            node._start_maintenance()


def _exact_fingers(node, sorted_refs, index):
    """finger[k] = successor(node.id + 2^k), via binary search on the ring.

    With ``proximity_routing`` on a region-labelled topology, the slot
    instead takes the first *same-region* node inside its valid span
    ``[start, start + 2^k)`` when one exists (proximity neighbor
    selection) -- the same preference the periodic fix-fingers applies,
    so oracle-built rings start in the steady state maintenance
    converges to.
    """
    fingers = [None] * ID_BITS
    n = len(sorted_refs)
    if n == 1:
        return fingers
    ids = [r.id for r in sorted_refs]
    import bisect

    proximity = node._proximity_on()
    for k in range(ID_BITS):
        start = (node.id + (1 << k)) % (1 << ID_BITS)
        pos = bisect.bisect_left(ids, start) % n
        chosen = sorted_refs[pos]
        if proximity and node._region_of(chosen.address) != node.region:
            span = 1 << k
            for step in range(1, n):
                ref = sorted_refs[(pos + step) % n]
                if distance_cw(start, ref.id) >= span:
                    break
                if (ref != node.ref
                        and node._region_of(ref.address) == node.region):
                    chosen = ref
                    break
        fingers[k] = chosen
    return fingers


def join_chord_ring(nodes, clock, settle_rounds=None):
    """Join nodes one at a time via the protocol, settling in between.

    Returns the simulated time consumed. ``settle_rounds`` controls how
    many stabilization periods to run after each join (default 3, enough
    for successor/predecessor pointers to converge; fingers keep
    improving in the background).
    """
    if not nodes:
        return 0.0
    start = clock.now
    first = nodes[0]
    first.create_ring()
    clock.run_for(STABILIZE_PERIOD)
    rounds = settle_rounds if settle_rounds is not None else 3
    for node in nodes[1:]:
        node.join(first.address)
        clock.run_for(rounds * STABILIZE_PERIOD)
    return clock.now - start
