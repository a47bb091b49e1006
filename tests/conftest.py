"""Shared fixtures for the test suite."""

import pytest

from repro.core.network import PierNetwork
from repro.dht.chord import ChordNode
from repro.dht.messages import parts_of
from repro.sim.clock import SimClock
from repro.util.rng import SeededRng


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def rng():
    return SeededRng(1234, "tests")


@pytest.fixture
def small_net():
    """An 8-node PIER testbed (fresh per test)."""
    return PierNetwork(nodes=8, seed=42)


@pytest.fixture
def mid_net():
    """A 16-node PIER testbed for join/aggregation tests."""
    return PierNetwork(nodes=16, seed=43)


def make_net(nodes, seed, **kwargs):
    return PierNetwork(nodes=nodes, seed=seed, **kwargs)


class RevisitTap:
    """Every routed message's walk, checked hop by hop as it arrives.

    A ``route`` -- alone or as a hop bundle's part -- must never reach a
    node it has already visited, its origin included; a retransmit over
    the same hop is the one repeat allowed. Lookups are only counted:
    they keep the owner check against the receiver's own predecessor
    pointer, so one can still lap while the ring heals.
    """

    def __init__(self):
        # walk -> (nodes it arrived at, origin first; hop -> where in
        # that list the hop's first arrival went; what names the walk)
        self._walks = {}
        self.route_revisits = []  # (node, key) per revisiting hop
        self.lookup_revisits = 0

    @staticmethod
    def _walk(message):
        """Every delivery is its own copy of the envelope, so a walk is
        named by what its copies share: a route by its payload (one
        dict per route), a lookup by its origin's ref object (one per
        node incarnation) and request id. The walk holds what it is
        named by, so no ``id`` is reused while the tap lives."""
        if message.kind == "route":
            return id(message.payload), message.payload
        return (id(message.origin), message.req_id), message.origin

    def arrive(self, src, dst, message):
        name, held = self._walk(message)
        walk = self._walks.get(name)
        if walk is None:
            walk = self._walks[name] = ([message.origin.address], {}, held)
        visited, hops, _held = walk
        since = hops.get((src, dst))
        if since is not None and src not in visited[since:]:
            return  # a retransmit: the sender never got the message back
        hops[(src, dst)] = len(visited)
        if dst in visited:
            if message.kind == "route":
                self.route_revisits.append((dst, message.key))
            else:
                self.lookup_revisits += 1
        visited.append(dst)


# Suites whose every routed hop goes through the tap, and the lookup
# revisits it counted in each test (reported at the end of the run).
REVISIT_TAPPED = ("test_chord_churn", "test_integration_churn")
LOOKUP_REVISITS = {}


@pytest.fixture(autouse=True)
def no_route_revisits(request, monkeypatch):
    """Fail a tapped suite's test if any route visits a node twice.

    The tap wraps ``ChordNode.handle_message`` rather than
    ``Network.on_deliver``, which those scenarios set themselves.
    """
    if request.module.__name__ not in REVISIT_TAPPED:
        yield None
        return
    tap = RevisitTap()
    handle = ChordNode.handle_message

    def tapped(node, src, payload):
        for part in parts_of(payload):
            if part.kind in ("route", "lookup"):
                tap.arrive(src, node.address, part)
        handle(node, src, payload)

    monkeypatch.setattr(ChordNode, "handle_message", tapped)
    yield tap
    LOOKUP_REVISITS[request.node.nodeid] = tap.lookup_revisits
    assert tap.route_revisits == []


def pytest_terminal_summary(terminalreporter):
    if LOOKUP_REVISITS:
        terminalreporter.write_line(
            "lookup hops that revisited a node: {} in {} tapped tests".format(
                sum(LOOKUP_REVISITS.values()), len(LOOKUP_REVISITS)))
