"""Next-hop selection scans distinct peers only -- and picks the same hop.

``ChordNode._candidates`` yields each distinct peer once instead of all
160 finger slots plus the successor list. The loops it replaced are kept
here verbatim as oracles; on seeded random rings with holes, stale
entries, equal-but-distinct ``NodeRef`` objects, expiring suspicions and
exclude sets, the new scan must return the *identical object*.
"""

import pytest

from repro.dht.bootstrap import build_chord_ring
from repro.dht.chord import ChordNode, NodeRef
from repro.dht.config import DhtConfig
from repro.sim.clock import SimClock
from repro.sim.latency import RegionalLatency
from repro.sim.network import Network
from repro.util.ids import ID_BITS, ID_SPACE, distance_cw, in_interval
from repro.util.rng import SeededRng

REGIONS = ("us", "eu", "ap")


# ----------------------------------------------------------------------
# Oracles: the per-slot loops as they stood before the distinct scan
# ----------------------------------------------------------------------
def all_slots(node):
    yield from node.fingers
    yield from node.successors


def oracle_closest_preceding(node, target, exclude=()):
    best = None
    best_distance = None
    local = None
    local_distance = None
    proximity = node._proximity_on()
    for candidate in all_slots(node):
        if candidate is None or candidate == node.ref:
            continue
        if candidate.address in exclude or node.is_suspect(candidate.address):
            continue
        if in_interval(candidate.id, node.id, target):
            d = distance_cw(candidate.id, target)
            if best_distance is None or d < best_distance:
                best = candidate
                best_distance = d
            if proximity and node._region_of(candidate.address) == node.region:
                if local_distance is None or d < local_distance:
                    local = candidate
                    local_distance = d
    if best is not None:
        if (local is not None and local != best
                and local_distance <= 2 * best_distance):
            return local
        return best
    for fallback in node.successors:
        if fallback == node.ref:
            continue
        if fallback.address in exclude or node.is_suspect(fallback.address):
            continue
        if in_interval(fallback.id, node.id, target):
            return fallback
    return None


def oracle_distinct_fingers(node):
    seen = {}
    for ref in list(node.successors) + [f for f in node.fingers if f]:
        if ref != node.ref and not node.is_suspect(ref.address):
            seen[ref.id] = ref
    return sorted(seen.values(), key=lambda r: distance_cw(node.id, r.id))


def oracle_proximity_finger(node, index, start, canonical):
    if not node._proximity_on():
        return canonical
    if node._region_of(canonical.address) == node.region:
        return canonical
    span = 1 << index
    best = canonical
    best_distance = None
    seen = set()
    for candidate in all_slots(node):
        if candidate is None or candidate == node.ref:
            continue
        if candidate.address in seen:
            continue
        seen.add(candidate.address)
        if node.is_suspect(candidate.address):
            continue
        if node._region_of(candidate.address) != node.region:
            continue
        d = distance_cw(start, candidate.id)
        if d < span and (best_distance is None or d < best_distance):
            best = candidate
            best_distance = d
    return best


# ----------------------------------------------------------------------
# Random rings
# ----------------------------------------------------------------------
def scrambled_ring(seed, proximity):
    """An oracle-built ring whose routing tables are then roughed up."""
    rng = SeededRng(seed, "next-hop")
    n = rng.randint(8, 120)
    addresses = ["h{}".format(i) for i in range(n)]
    latency = RegionalLatency(
        rng.fork("latency"),
        regions={a: rng.choice(REGIONS) for a in addresses})
    clock = SimClock()
    net = Network(clock, latency, rng.fork("net"))
    config = DhtConfig(proximity_routing=proximity)
    nodes = [ChordNode(net, a, config, rng.fork(a)) for a in addresses]
    build_chord_ring(nodes, start_maintenance=False)
    refs = [node.ref for node in nodes]
    for node in nodes:
        for slot in range(ID_BITS):
            roll = rng.random()
            if roll < 0.25:
                node.fingers[slot] = None  # never fixed yet
            elif roll < 0.30:
                node.fingers[slot] = rng.choice(refs)  # stale entry
            elif roll < 0.33 and node.fingers[slot] is not None:
                # The same peer learned twice: equal, not identical.
                ref = node.fingers[slot]
                node.fingers[slot] = NodeRef(ref.id, ref.address)
        successors = list(node.successors)
        if rng.random() < 0.3:
            successors.append(rng.choice(refs))
        if rng.random() < 0.2:
            ref = rng.choice(successors)
            successors.insert(0, NodeRef(ref.id, ref.address))
        if rng.random() < 0.2:
            successors.insert(rng.randint(0, len(successors)), node.ref)
        node.successors = successors
        for address in rng.sample(addresses, rng.randint(0, n // 3)):
            # Some suspicions lapse as the test advances the clock.
            node._suspects[address] = rng.uniform(0.0, 20.0)
    return rng, clock, nodes


def random_target(rng, nodes):
    roll = rng.random()
    if roll < 0.6:
        return rng.randint(0, ID_SPACE - 1)
    # On and right next to a node id: the interval edges.
    return (rng.choice(nodes).id + rng.choice((-1, 0, 1))) % ID_SPACE


CASES = [(seed, proximity) for seed in range(8) for proximity in (False, True)]


@pytest.mark.parametrize("seed,proximity", CASES)
def test_closest_preceding_returns_the_identical_object(seed, proximity):
    rng, clock, nodes = scrambled_ring(seed, proximity)
    addresses = [node.address for node in nodes]
    hops = 0
    for step in range(100):
        if step % 10 == 0:
            clock.run_for(2.0)  # lets some suspicion TTLs expire
        node = rng.choice(nodes)
        target = random_target(rng, nodes)
        exclude = set(rng.sample(addresses, rng.choice((0, 0, 1, 3, 8))))
        expected = oracle_closest_preceding(node, target, exclude)
        assert node.closest_preceding(target, exclude) is expected
        hops += expected is not None
    assert hops > 50  # the sweep exercises real choices, not only None


@pytest.mark.parametrize("seed,proximity", CASES)
def test_distinct_fingers_keep_their_order(seed, proximity):
    rng, clock, nodes = scrambled_ring(seed, proximity)
    for step in range(30):
        if step % 10 == 0:
            clock.run_for(5.0)
        node = rng.choice(nodes)
        expected = oracle_distinct_fingers(node)
        got = node._distinct_fingers()
        assert [(r.id, r.address) for r in got] == [
            (r.id, r.address) for r in expected]
        assert len({r.id for r in got}) == len(got)


@pytest.mark.parametrize("seed", range(8))
def test_proximity_finger_returns_the_identical_object(seed):
    rng, clock, nodes = scrambled_ring(seed, proximity=True)
    moved = 0
    for step in range(60):
        if step % 10 == 0:
            clock.run_for(3.0)
        node = rng.choice(nodes)
        index = rng.randint(ID_BITS - 12, ID_BITS - 1)  # spans holding peers
        start = (node.id + (1 << index)) % ID_SPACE
        canonical = rng.choice(nodes).ref
        expected = oracle_proximity_finger(node, index, start, canonical)
        assert node._proximity_finger(index, start, canonical) is expected
        moved += expected is not canonical
    assert moved > 0


def test_candidates_skip_self_holes_and_repeats():
    _rng, _clock, nodes = scrambled_ring(3, proximity=False)
    for node in nodes:
        got = list(node._candidates())
        ids = [ref.id for ref in got]
        assert len(set(ids)) == len(ids)
        assert node.id not in ids
        assert set(ids) == {
            ref.id for ref in all_slots(node) if ref is not None
        } - {node.id}
        # First occurrence, in table order.
        first = {}
        for ref in all_slots(node):
            if ref is not None:
                first.setdefault(ref.id, ref)
        assert all(ref is first[ref.id] for ref in got)
