"""Ring maintenance: one exchange per ring edge per period.

Counts what Chord's upkeep actually puts on the wire, by RPC inner
kind, through ``Network.on_deliver``:

* the stabilise probe (``get_neighbors``) comes from the prober, so it
  is also its notify and -- from the predecessor -- its keep-alive;
* ``notify`` goes out only when a reply changed the prober's successor;
* ``ping`` goes out only to a predecessor that has gone quiet;
* a finger refresh asks the finger ``owns(start)`` and runs the routed
  ``lookup`` only when that fails.
"""

from collections import Counter

import pytest

from ring_oracle import owner_of, ring_is_consistent

from repro.core.network import PierNetwork
from repro.core.plansync import SYNC_OP
from repro.dht import ring
from repro.dht.bootstrap import build_chord_ring
from repro.dht.chord import ChordNode, NodeRef
from repro.dht.config import DhtConfig
from repro.dht.messages import RpcReply
from repro.sim.clock import SimClock
from repro.sim.latency import ConstantLatency, RegionalLatency
from repro.sim.network import Network
from repro.util.ids import ID_BITS, ID_SPACE, node_id_for
from repro.util.rng import SeededRng
from repro.util.serde import wire_size

LATENCY = 0.02


class Tap:
    """Every delivery as ``(time, name, src, dst)``; RPCs by inner kind,
    a reply by the kind of the request it answers (a settled stabilise
    reply is empty, so its keys cannot name it)."""

    def __init__(self, clock, net):
        self.clock = clock
        self.events = []
        self._asked = {}  # (requester, req_id) -> request kind
        net.on_deliver = self

    def __call__(self, src, dst, payload):
        name = payload.kind
        if name == "rpc_req":
            name = payload.inner["kind"]
            self._asked[src, payload.req_id] = name
        elif name == "rpc_rep":
            name = self._asked.pop((dst, payload.req_id), "unasked") + "_reply"
        self.events.append((self.clock.now, name, src, dst))

    def since(self, t, name=None):
        return [e for e in self.events
                if e[0] >= t and (name is None or e[1] == name)]

    def counts(self, t=0.0):
        return Counter(e[1] for e in self.since(t))


def make_ring(n, seed=0, settle=30.0, latency=None, **config):
    clock = SimClock()
    rng = SeededRng(seed, "maintenance")
    net = Network(clock, latency or ConstantLatency(LATENCY), rng.fork("net"))
    cfg = DhtConfig(**config)
    nodes = [ChordNode(net, "m{}".format(i), cfg, rng.fork("m{}".format(i)))
             for i in range(n)]
    build_chord_ring(nodes)
    tap = Tap(clock, net)
    clock.run_for(settle)
    return clock, net, nodes, tap


@pytest.fixture
def one_slot_a_round(monkeypatch):
    monkeypatch.setattr(ring, "FINGERS_PER_ROUND", 1)


def ring_order(nodes):
    return sorted((n for n in nodes if n.alive), key=lambda n: n.id)


def neighbours(nodes, node):
    """(predecessor, successor) of ``node`` by ground truth."""
    order = ring_order(nodes)
    i = order.index(node)
    return order[i - 1], order[(i + 1) % len(order)]


class TestSettledRing:
    def test_one_probe_and_reply_per_node_per_period(self):
        clock, _net, nodes, tap = make_ring(16)
        t = clock.now
        periods = 4
        clock.run_for(periods * ring.STABILIZE_PERIOD)
        probes = Counter(e[2] for e in tap.since(t, "get_neighbors"))
        replies = Counter(e[3] for e in tap.since(t, "get_neighbors_reply"))
        assert probes == {n.address: periods for n in nodes}
        assert replies == probes
        counts = tap.counts(t)
        assert counts["notify"] == 0
        assert counts["ping"] == 0

    def test_probe_goes_to_the_successor_and_names_the_prober(self):
        # By its address alone: the responder's predecessor is the
        # ref that address hashes to.
        clock, net, nodes, _tap = make_ring(8)
        seen = []
        net.on_deliver = lambda src, dst, p: (
            p.kind == "rpc_req" and p.inner["kind"] == "get_neighbors"
            and seen.append((src, dst, p.inner)))
        clock.run_for(ring.STABILIZE_PERIOD)
        assert len(seen) == 8
        for src, dst, inner in seen:
            node = net.node(src)
            assert dst == node.successor.address
            assert "node" not in inner
            assert net.node(dst).predecessor == node.ref

    def test_finger_refresh_verifies_and_never_looks_up(self):
        clock, _net, nodes, tap = make_ring(16)
        t = clock.now
        before = [list(n.fingers) for n in nodes]
        # One full pass over every node's 160 slots.
        clock.run_for(ring.FIX_FINGERS_PERIOD * ID_BITS / ring.FINGERS_PER_ROUND)
        counts = tap.counts(t)
        assert counts["owns"] > 0
        assert counts["owns_reply"] == counts["owns"]
        assert counts["lookup"] == 0 and counts["lookup_done"] == 0
        assert [list(n.fingers) for n in nodes] == before


class TestJoin:
    def test_joiner_costs_one_notify_and_one_period(self):
        clock, net, nodes, tap = make_ring(8, seed=3)
        cfg = nodes[0].config
        joiner = ChordNode(net, "late", cfg, SeededRng(3, "late"))
        everyone = nodes + [joiner]
        pred, _succ = neighbours(everyone, joiner)
        t = clock.now
        joiner.join(nodes[0].address)
        # The parent (notify after every probe) also needed one period:
        # the joiner's predecessor learns of it at its next probe.
        clock.run_for(ring.STABILIZE_PERIOD + 1.0)
        assert ring_is_consistent(everyone)
        assert joiner.predecessor == pred.ref
        # Exactly one successor pointer moved to a node that had not
        # heard from its new predecessor: pred -> joiner. The joiner's
        # own successor learned of it from the joiner's first probe.
        notifies = tap.since(t, "notify")
        assert [(e[2], e[3]) for e in notifies] == [(pred.address, "late")]
        clock.run_for(4 * ring.STABILIZE_PERIOD)
        assert len(tap.since(t, "notify")) == 1

    def test_adopting_a_joiner_keeps_the_old_successor_listed(self):
        # 5-node ring, one late joiner between p and its successor s.
        # s's own list never names s, so p must keep s itself when it
        # puts the joiner in front: [joiner, s, s1, s2], not
        # [joiner, s1, s2, s3] -- a failover in that round skipped s.
        clock, net, nodes, _tap = make_ring(5, seed=5)
        cfg = nodes[0].config
        joiner = ChordNode(net, "late", cfg, SeededRng(5, "late"))
        pred, succ = neighbours(nodes + [joiner], joiner)
        old = list(pred.successors)
        assert old[0] == succ.ref
        joiner.join(nodes[0].address)
        for _ in range(200):
            clock.run_for(0.05)
            if pred.successor == joiner.ref:
                break
        assert pred.successors == [joiner.ref] + old[:3]

    def test_every_predecessor_is_the_ref_its_address_hashes_to(self):
        # No probe or notify names an id: the responder derives it from
        # the sender's address, so no node can claim another id.
        clock, net, nodes, _tap = make_ring(8, seed=3)
        joiner = ChordNode(net, "late", nodes[0].config, SeededRng(3, "late"))
        everyone = nodes + [joiner]
        last_prober = {}
        net.on_deliver = lambda src, dst, p: (
            p.kind == "rpc_req" and p.inner["kind"] in ("get_neighbors", "notify")
            and last_prober.__setitem__(dst, src))
        joiner.join(nodes[0].address)
        clock.run_for(3 * ring.STABILIZE_PERIOD)
        assert ring_is_consistent(everyone)
        for node in everyone:
            address = last_prober[node.address]
            assert node.predecessor == NodeRef(node_id_for(address), address)
            assert node.predecessor.address == address

    def test_quick_rejoin_finds_its_successor(self):
        # Back 2 s after its crash: its successor still holds it as
        # predecessor and peers may still route to it. Its join lookup
        # treats it as gone, so the answer is its true successor, not
        # the joiner itself (which would orphan it) or a circling hop.
        clock, _net, nodes, _tap = make_ring(8, seed=1)
        victim = nodes[3]
        _pred, succ = neighbours(nodes, victim)
        victim.crash()
        clock.run_for(2.0)
        victim.recover(nodes[0].address)
        clock.run_for(1.0)
        assert victim.successor == succ.ref


def digest_hooks(nodes, digests):
    """Each node advertises ``digests[address]``; returns the list its
    handler fills with ``(prober, responder, digest)``."""
    heard = []
    for node in nodes:
        node.on_neighbor_digest(
            lambda address=node.address: digests[address],
            lambda digest, src, node=node:
            heard.append((src, node.address, digest)),
        )
    return heard


class TestNeighborDigest:
    def test_digest_rides_the_probe_only_when_the_successor_lacks_it(self):
        clock, net, nodes, _tap = make_ring(8)
        digests = {n.address: (i if i % 2 else None)
                   for i, n in enumerate(nodes)}
        heard = digest_hooks(nodes, digests)
        probes = []
        net.on_deliver = lambda src, dst, wire: (
            wire.kind == "rpc_req" and wire.inner["kind"] == "get_neighbors"
            and probes.append((src, dst, wire)))
        clock.run_for(ring.STABILIZE_PERIOD)
        # Still one probe per node per period. The first after the hook
        # carries the digest, None included: the successor holds none.
        assert sorted(p[0] for p in probes) == sorted(n.address for n in nodes)
        assert all(wire.inner["digest"] == digests[src]
                   for src, _dst, wire in probes)
        first = len(probes)
        clock.run_for(ring.STABILIZE_PERIOD)
        assert len(probes) == 2 * first
        for _src, _dst, wire in probes[first:]:
            # Unchanged: not a byte more than a probe without the hook.
            assert set(wire.inner) == {"kind"}
            bare = {"kind": "get_neighbors"}
            assert wire.wire_size() == 24 + wire_size(bare) == 53
        # Each probed node handed the prober's digest (None: nothing)
        # upward, whether or not this probe carried it.
        assert sorted(heard) == sorted(
            (src, dst, digests[src]) for src, dst, _wire in probes)


def true_successors(nodes, node):
    """``node``'s successor list by ground truth."""
    order = ring_order(nodes)
    i = order.index(node)
    return [order[(i + j) % len(order)].ref
            for j in range(1, ring.SUCCESSOR_LIST_LENGTH + 1)]


class Stabilise:
    """Wraps ``net.send``: every stabilise probe and reply as it leaves.

    ``probes`` are ``(time, prober, responder, inner)``; ``replies`` are
    ``(time, responder, prober, inner)``, a reply known by the probe it
    answers. ``drop(src, dst, inner)``, when set, loses the first reply
    it accepts; ``hold(src, dst, inner)`` delays the first one it
    accepts until the next reply on the same edge has left. An empty
    reply is checked as it leaves: the lists the prober will reuse must
    be the responder's present state.
    """

    def __init__(self, clock, net):
        self.clock = clock
        self.net = net
        self.probes = []
        self.replies = []
        self.drop = None
        self.hold = None
        self._held = None
        self._probe_ids = set()  # (prober, req_id)
        self._send = net.send
        net.send = self.send

    def send(self, src, dst, payload):
        if payload.kind == "rpc_req" and payload.inner["kind"] == "get_neighbors":
            self.probes.append((self.clock.now, src, dst, payload.inner))
            self._probe_ids.add((src, payload.req_id))
        elif payload.kind == "rpc_rep" and (dst, payload.req_id) in self._probe_ids:
            inner = payload.inner
            self.replies.append((self.clock.now, src, dst, inner))
            if not inner:
                responder, prober = self.net.node(src), self.net.node(dst)
                heard = prober._neighbors_heard
                assert heard[:2] == (src, responder._neighbors_version)
                assert heard[2] == responder.predecessor
                assert list(heard[3]) == responder.successors
            if self.drop is not None and self.drop(src, dst, inner):
                self.drop = None
                return
            if self.hold is not None and self.hold(src, dst, inner):
                self.hold = None
                self._held = (src, dst, payload)
                return
            if self._held is not None and self._held[:2] == (src, dst):
                self._send(src, dst, payload)
                held, self._held = self._held, None
                self._send(*held)
                return
        self._send(src, dst, payload)

    def full(self, t=0.0, src=None, dst=None):
        return [r for r in self.replies if r[0] >= t and "successors" in r[3]
                and src in (None, r[1]) and dst in (None, r[2])]


class TestNeighborDelta:
    """The stabilise reply carries the neighbour lists only when the
    prober does not already hold them (by the version it echoes)."""

    def test_a_settled_ring_replies_with_nothing(self):
        clock, net, nodes, _tap = make_ring(16)
        log = Stabilise(clock, net)
        clock.run_for(ring.STABILIZE_PERIOD)
        assert sorted(r[2] for r in log.replies) == sorted(
            n.address for n in nodes)
        for _t, _src, _dst, inner in log.replies:
            assert inner == {}
            assert RpcReply(1, inner).wire_size() == 20
        # No probe echoed a version: each successor knows what it sent.
        assert all(set(p[3]) == {"kind"} for p in log.probes)

    def test_a_join_resends_the_changed_lists(self):
        clock, net, nodes, _tap = make_ring(8, seed=3)
        joiner = ChordNode(net, "late", nodes[0].config, SeededRng(3, "late"))
        everyone = nodes + [joiner]
        pred, succ = neighbours(everyone, joiner)
        log = Stabilise(clock, net)
        t = clock.now
        joiner.join(nodes[0].address)
        clock.run_for(3 * ring.STABILIZE_PERIOD)
        assert ring_is_consistent(everyone)
        # succ told pred about its new predecessor, with the lists.
        assert any(r[3]["predecessor"] == joiner.ref
                   for r in log.full(t, succ.address, pred.address))
        for node in everyone:
            assert node.successors == true_successors(everyone, node)
        # Settled again: the version alone.
        t = clock.now
        clock.run_for(ring.STABILIZE_PERIOD)
        assert log.replies[-1][0] >= t and log.full(t) == []

    def test_a_crashed_third_successor_is_resent(self):
        clock, net, nodes, _tap = make_ring(8, seed=2)
        responder = nodes[0]
        prober, _ = neighbours(nodes, responder)
        dead = net.node(responder.successors[2].address)
        log = Stabilise(clock, net)
        t = clock.now
        dead.crash()
        clock.run_for(6 * ring.STABILIZE_PERIOD)
        sent = log.full(t, responder.address, prober.address)
        assert sent and dead.ref not in sent[-1][3]["successors"]
        for node in ring_order(nodes):
            assert node.successors == true_successors(nodes, node)

    def test_a_lost_reply_is_resent_at_the_next_probe(self):
        # A timeout longer than the period (replies queued under load):
        # the next probe leaves while the lost one is still open, so it
        # goes to the same successor.
        clock, net, nodes, _tap = make_ring(8, seed=2, rpc_timeout=6.0)
        responder = nodes[0]
        prober, _ = neighbours(nodes, responder)
        held = prober._neighbors_heard[1]
        log = Stabilise(clock, net)
        log.drop = lambda src, dst, inner: (
            (src, dst) == (responder.address, prober.address)
            and "successors" in inner)
        t = clock.now
        net.node(responder.successors[2].address).crash()
        clock.run_for(6 * ring.STABILIZE_PERIOD + ring.SUSPECT_TTL)
        assert log.drop is None  # the change's first reply was lost
        lost = log.full(t, responder.address, prober.address)[0]
        # The next probe still echoes what the prober holds, and the
        # lists come back with the lost reply's version or a later one.
        probe = next(p for p in log.probes
                     if p[0] > lost[0] and p[1] == prober.address)
        assert probe[3]["seen"] == held
        again = next(r for r in log.replies
                     if r[0] >= probe[0] and r[2] == prober.address)
        assert "successors" in again[3]
        assert again[3]["version"] >= lost[3]["version"] > held
        for node in ring_order(nodes):
            assert node.successors == true_successors(nodes, node)

    def test_a_recovered_responder_is_heard_in_full(self):
        clock, net, nodes, _tap = make_ring(8, seed=1)
        responder = nodes[3]
        prober, _ = neighbours(nodes, responder)
        log = Stabilise(clock, net)
        responder.crash()
        clock.run_for(2 * ring.STABILIZE_PERIOD)
        assert prober.successor != responder.ref
        t = clock.now
        version = responder._neighbors_version
        responder.recover(nodes[0].address)
        # The counter outlives the crash: no later state can be issued
        # a version a prober may still hold.
        assert responder._neighbors_version == version
        clock.run_for(6 * ring.STABILIZE_PERIOD)
        assert log.full(t, responder.address, prober.address)
        assert prober.successors == true_successors(nodes, prober)
        assert responder.successors == true_successors(nodes, responder)
        # What the lists read when every reply carried them.
        assert [r.address for r in prober.successors] == ["m3", "m5", "m7", "m6"]
        assert [r.address for r in responder.successors] == [
            "m5", "m7", "m6", "m1"]

    def test_a_prober_that_crashed_before_the_reply_gets_the_lists_again(self):
        # The responder sent the changed lists, so it remembers the
        # prober holds them; the prober died before they landed. Its
        # first probe after it rejoined says what it still holds.
        clock, net, nodes, _tap = make_ring(8, seed=2)
        responder = nodes[0]
        prober, _ = neighbours(nodes, responder)
        held = prober._neighbors_heard[1]
        log = Stabilise(clock, net)

        def crash_the_prober(src, dst, inner):
            if ((src, dst) != (responder.address, prober.address)
                    or "successors" not in inner):
                return False
            prober.crash()
            return True

        log.drop = crash_the_prober
        net.node(responder.successors[2].address).crash()
        while log.drop is not None:
            clock.run_for(0.05)
        lost = log.replies[-1]
        prober.recover(responder.address)
        clock.run_for(0.5)
        probe = next(p for p in log.probes
                     if p[0] > lost[0] and p[1] == prober.address)
        assert probe[2] == responder.address
        assert probe[3]["seen"] == held < lost[3]["version"]
        again = next(r for r in log.replies
                     if r[0] >= probe[0] and r[2] == prober.address)
        assert again[3]["version"] >= lost[3]["version"]
        clock.run_for(6 * ring.STABILIZE_PERIOD)
        for node in ring_order(nodes):
            assert node.successors == true_successors(nodes, node)

    def test_after_a_timeout_the_next_probe_says_what_it_holds(self):
        clock, net, nodes, _tap = make_ring(8, seed=2)
        responder = nodes[0]
        prober, _ = neighbours(nodes, responder)
        log = Stabilise(clock, net)
        log.drop = lambda src, dst, inner: (
            (src, dst) == (responder.address, prober.address))
        lost = await_probe(clock, log, prober)
        assert set(lost[3]) == {"kind"}
        clock.run_for(prober.config.rpc_timeout + 0.1)
        assert prober.is_suspect(responder.address)
        # The next probe goes to the next successor, which never sent
        # the prober anything; so does the first one back to the
        # responder, since the lists the prober holds are not its.
        probe = await_probe(clock, log, prober)
        assert probe[2] != responder.address and probe[3]["seen"] is None
        clock.run_for(ring.SUSPECT_TTL + 2 * ring.STABILIZE_PERIOD)
        back = [p[3] for p in log.probes
                if p[0] > probe[0] and p[1:3] == (prober.address,
                                                   responder.address)]
        assert back[0] == {"kind": "get_neighbors", "seen": None}
        assert back[1:] and all(p == {"kind": "get_neighbors"}
                                for p in back[1:])
        for node in ring_order(nodes):
            assert node.successors == true_successors(nodes, node)

    def test_a_probe_leaving_while_one_is_open_says_what_it_holds(self):
        clock, net, nodes, _tap = make_ring(8, seed=2, rpc_timeout=6.0)
        responder = nodes[0]
        prober, _ = neighbours(nodes, responder)
        held = prober._neighbors_heard[1]
        log = Stabilise(clock, net)
        log.drop = lambda src, dst, inner: (
            (src, dst) == (responder.address, prober.address))
        assert set(await_probe(clock, log, prober)[3]) == {"kind"}
        probe = await_probe(clock, log, prober)
        assert log.drop is None  # the first one is still open
        assert probe[2] == responder.address and probe[3]["seen"] == held
        clock.run_for(0.1)
        # The responder's lists did not change: nothing to resend.
        assert log.replies[-1][2:] == (prober.address, {})

    def test_a_late_answer_to_an_older_probe_never_rolls_the_lists_back(self):
        # Two probes open: the older one's lists land after the newer
        # one's. The responder remembers sending the newer lists, so
        # the prober must keep those.
        clock, net, nodes, _tap = make_ring(8, seed=2, rpc_timeout=6.0)
        responder = nodes[0]
        prober, _ = neighbours(nodes, responder)
        responder._stabilizer.stop()  # its lists change only below
        log = Stabilise(clock, net)

        def hold_and_change(src, dst, inner):
            if (src, dst) != (responder.address, prober.address):
                return False
            responder.successors = responder.successors[:2]
            return True

        responder.successors = responder.successors[:3]
        log.hold = hold_and_change
        t = clock.now
        await_probe(clock, log, prober)
        await_probe(clock, log, prober)
        clock.run_for(0.1)
        assert log.hold is None and log._held is None  # both answered
        older, newer = (r[3]["version"] for r in log.full(
            t, responder.address, prober.address))
        assert older < newer == prober._neighbors_heard[1]
        probe = await_probe(clock, log, prober)
        assert set(probe[3]) == {"kind"}
        clock.run_for(0.1)
        assert [r[3] for r in log.replies if r[0] >= probe[0]
                and r[1:3] == (responder.address, prober.address)] == [{}]

    def test_a_responder_keeps_one_record_per_prober(self):
        clock, _net, nodes, _tap = make_ring(8, seed=2)
        responder = nodes[0]
        pred, _ = neighbours(nodes, responder)
        other = next(n for n in nodes if n not in (responder, pred))
        replies = []

        def probe(prober, **request):
            responder._rpc_get_neighbors(
                prober.address, dict(kind="get_neighbors", **request),
                replies.append)
            return replies[-1]

        version = responder._neighbors_version
        assert probe(other, seen=None, digest=3)["version"] == version
        assert probe(other) == {}
        assert probe(pred) == {}
        # The responder's lists change; its predecessor hears of it.
        responder.successors = responder.successors[:2]
        assert probe(pred)["version"] == version + 1
        # The other prober still holds the old version, not the new one
        # the predecessor was sent.
        assert probe(other)["version"] == version + 1
        assert probe(other) == {}
        assert responder._probers[other.address] == [3, version + 1]
        assert responder._probers[pred.address] == [
            ring.UNHEARD_DIGEST, version + 1]


def await_probe(clock, log, prober):
    """Run until ``prober``'s next stabilise probe leaves; return it."""
    count = len(log.probes)
    for _ in range(int(2 * ring.STABILIZE_PERIOD / 0.01)):
        clock.run_for(0.01)
        mine = [p for p in log.probes[count:] if p[1] == prober.address]
        if mine:
            return mine[0]
    raise AssertionError("{} sent no probe".format(prober.address))


class TestDigestEcho:
    """The neighbour digest rides the probe only when the successor
    does not hold it: the latest probe to this successor carried it
    and was answered."""

    def settled(self, n=8, seed=2, digest=7, **config):
        clock, net, nodes, _tap = make_ring(n, seed=seed, **config)
        digests = dict.fromkeys((node.address for node in nodes), digest)
        heard = digest_hooks(nodes, digests)
        clock.run_for(2 * ring.STABILIZE_PERIOD)
        log = Stabilise(clock, net)
        prober = nodes[0]
        responder = net.node(prober.successor.address)

        def handed():
            """What ``responder`` handed upward for ``prober``'s probes."""
            return [d for src, dst, d in heard
                    if (src, dst) == (prober.address, responder.address)]

        # Held and unchanged: the probe carries no digest.
        assert "digest" not in await_probe(clock, log, prober)[3]
        clock.run_for(0.1)
        return clock, digests, log, prober, responder, handed

    def test_a_changed_digest_rides_the_next_probe(self):
        clock, digests, log, prober, _responder, handed = self.settled()
        digests[prober.address] = 8
        assert await_probe(clock, log, prober)[3]["digest"] == 8
        assert "digest" not in await_probe(clock, log, prober)[3]
        clock.run_for(0.1)
        assert handed()[-3:] == [7, 8, 8]

    @pytest.mark.parametrize("then", [8, 7], ids=["unchanged", "reverted"])
    def test_after_a_lost_reply_the_next_probe_carries_the_digest(self, then):
        # The next probe leaves while the lost one is open (a timeout
        # longer than the period), so it goes to the same successor.
        # Reverted: the successor holds 8, not the 7 last answered.
        clock, digests, log, prober, responder, handed = self.settled(
            rpc_timeout=6.0)
        digests[prober.address] = 8
        log.drop = lambda src, dst, inner: (
            (src, dst) == (responder.address, prober.address))
        assert await_probe(clock, log, prober)[3]["digest"] == 8
        digests[prober.address] = then
        probe = await_probe(clock, log, prober)
        assert log.drop is None  # the first probe's reply was lost
        assert probe[2] == responder.address and probe[3]["digest"] == then
        clock.run_for(0.1)
        assert handed()[-3:] == [7, 8, then]

    def test_a_late_answer_to_an_older_probe_marks_nothing_held(self):
        # Two probes in flight: the older one's answer arrives after
        # the newer one's, and must not mark the older digest as held.
        clock, digests, log, prober, responder, handed = self.settled(
            rpc_timeout=6.0)
        digests[prober.address] = 8
        log.hold = lambda src, dst, inner: (
            (src, dst) == (responder.address, prober.address))
        assert await_probe(clock, log, prober)[3]["digest"] == 8
        digests[prober.address] = 9
        assert await_probe(clock, log, prober)[3]["digest"] == 9
        clock.run_for(0.1)
        assert log.hold is None and log._held is None  # both answered
        digests[prober.address] = 8
        probe = await_probe(clock, log, prober)
        assert probe[2] == responder.address and probe[3]["digest"] == 8
        clock.run_for(0.1)
        assert handed()[-4:] == [7, 8, 9, 8]

    def test_a_new_successor_gets_the_digest_even_none(self):
        clock, net, nodes, _tap = make_ring(8, seed=3)
        joiner = ChordNode(net, "late", nodes[0].config, SeededRng(3, "late"))
        everyone = nodes + [joiner]
        digests = dict.fromkeys((n.address for n in everyone), 7)
        heard = digest_hooks(everyone, digests)
        clock.run_for(2 * ring.STABILIZE_PERIOD)
        pred, succ = neighbours(everyone, joiner)
        assert pred.successor == succ.ref  # succ holds pred's 7
        log = Stabilise(clock, net)
        joiner.join(nodes[0].address)
        while pred.successor != joiner.ref:
            clock.run_for(0.05)
        assert await_probe(clock, log, pred)[2:] == (
            "late", {"kind": "get_neighbors", "seen": None, "digest": 7})
        digests[pred.address] = None
        probe = await_probe(clock, log, pred)
        assert probe[2] == "late" and probe[3]["digest"] is None
        clock.run_for(0.1)
        joiner.crash()
        while pred.successor != succ.ref:
            clock.run_for(0.05)
        # Back to succ, which still remembers 7: an explicit None.
        probe = await_probe(clock, log, pred)
        assert probe[2] == succ.address and probe[3]["digest"] is None
        clock.run_for(0.1)
        assert [d for src, dst, d in heard
                if (src, dst) == (pred.address, succ.address)][-2:] == [7, None]

    def test_a_digest_never_heard_is_asked_for(self):
        # A probe without a digest from a prober the responder holds
        # nothing for is not "advertises nothing" (None): the plan
        # layer asks for the prober's lists instead of pushing plans.
        clock, _net, nodes, _tap = make_ring(8)
        heard = []
        nodes[0].on_neighbor_digest(lambda: None,
                                    lambda digest, src: heard.append(digest))
        clock.run_for(ring.STABILIZE_PERIOD)
        assert heard == [ring.UNHEARD_DIGEST]
        net = PierNetwork(nodes=4, seed=1)
        engine = net.node(net.addresses()[0]).engine
        sent = []
        engine.dht.send_direct = lambda dst, payload: sent.append(payload)
        engine.plansync.on_digest(ring.UNHEARD_DIGEST, net.addresses()[1])
        assert [p.get("ask") for p in sent] == [True]
        assert "plans" not in sent[0]

    def test_a_recovered_responder_readopts_the_probers_plans_in_one_probe(self):
        # The responder keeps each prober's digest through a crash, so
        # the prober's next probe -- without the digest it holds --
        # still shows the recovered node what it lacks.
        net = PierNetwork(nodes=8, seed=200)
        net.create_stream_table("s", [("v", "FLOAT")], window=30.0)
        handle = net.submit_sql(
            "SELECT COUNT(*) AS n FROM s EVERY 10 SECONDS WINDOW 4 SECONDS "
            "LIFETIME 200 SECONDS", node=net.addresses()[0])
        net.advance(15)
        chords = [net.node(a).chord for a in net.addresses()]
        responder = chords[3]
        prober, _ = neighbours(chords, responder)
        probes = []
        send = net.net.send

        def only_the_prober_syncs(src, dst, payload):
            # Plans reach the responder from the prober alone.
            if (payload.kind == "direct" and dst == responder.address
                    and src != prober.address
                    and payload.payload.get("op") == SYNC_OP):
                return
            if (payload.kind == "rpc_req" and src == prober.address
                    and payload.inner["kind"] == "get_neighbors"):
                probes.append((net.now, dst, payload.inner))
            send(src, dst, payload)

        net.net.send = only_the_prober_syncs
        while not probes:
            net.advance(0.05)
        net.advance(0.1)  # answered: the responder holds the digest
        net.crash_node(responder.address)
        net.advance(0.5)
        net.recover_node(responder.address)
        engine = net.node(responder.address).engine
        assert handle.qid not in engine.queries
        while len(probes) < 2:
            net.advance(0.05)
        assert probes[1][1] == responder.address
        assert "digest" not in probes[1][2]
        net.advance(1.0)
        assert handle.qid in engine.queries


class TestPredecessorLiveness:
    def test_quiet_predecessor_is_pinged_after_a_period_of_silence(self):
        clock, _net, nodes, tap = make_ring(16, seed=2)
        node = nodes[0]
        pred, _ = neighbours(nodes, node)
        pred._stabilizer.stop()  # alive, but no longer probing
        heard = node._predecessor_heard
        t = clock.now
        clock.run_for(3 * ring.CHECK_PREDECESSOR_PERIOD)
        pings = [e for e in tap.since(t, "ping") if e[2] == node.address]
        assert pings and all(e[3] == pred.address for e in pings)
        first = pings[0][0] - LATENCY  # sent one latency before delivery
        assert first - heard >= ring.CHECK_PREDECESSOR_PERIOD
        assert first - heard < 2 * ring.CHECK_PREDECESSOR_PERIOD
        # It answers, so it stays -- and each answer restarts the clock.
        assert node.predecessor == pred.ref
        assert len(pings) <= 3
        assert [e[2] for e in tap.since(t, "ping")] == [node.address] * len(pings)

    @pytest.mark.parametrize("seed", range(8))
    def test_dead_predecessor_is_cleared_within_the_bound(self, seed):
        """Worst case, from the predecessor's last probe to its
        eviction: ``2 * CHECK_PREDECESSOR_PERIOD + rpc_timeout`` -- a
        check that just misses a full period of silence leaves the ping
        to the next one. (The parent pinged every period whatever it
        had heard: ``CHECK_PREDECESSOR_PERIOD + rpc_timeout`` from the
        crash.)"""
        clock, _net, nodes, tap = make_ring(16, seed=seed)
        cfg = nodes[0].config
        node = nodes[seed]
        pred, _ = neighbours(nodes, node)
        pred.crash()
        clock.run_for(2 * LATENCY)  # a probe it sent just before dying
        heard = node._predecessor_heard
        bound = 2 * ring.CHECK_PREDECESSOR_PERIOD + cfg.rpc_timeout
        pinged = None
        while node.predecessor == pred.ref:
            assert clock.now - heard <= bound + 2 * LATENCY + 0.05
            clock.run_for(0.05)
            pings = [e for e in tap.since(heard, "ping") if e[3] == pred.address]
            if pings and pinged is None:
                pinged = pings[0][0] - LATENCY
        # Cleared one rpc_timeout after the ping went out.
        assert pinged is not None
        assert clock.now - pinged == pytest.approx(cfg.rpc_timeout, abs=0.06)
        assert node.is_suspect(pred.address)


@pytest.mark.usefixtures("one_slot_a_round")
class TestFingerRefresh:
    """One slot at a time (``FINGERS_PER_ROUND = 1``), the far slot: its
    start is half the ring away, so nothing answers it locally."""

    SLOT = ID_BITS - 1

    def ring(self, seed=1):
        clock, net, nodes, tap = make_ring(16, seed=seed)
        for n in nodes:
            n._finger_fixer.stop()  # refresh by hand, one slot
        node = nodes[0]
        start = (node.id + (1 << self.SLOT)) % ID_SPACE
        owner = owner_of(nodes, start)
        assert node.fingers[self.SLOT] == owner.ref
        assert node._local_owner(start) is None
        return clock, nodes, tap, node, start, owner

    def refresh(self, clock, node, seconds=3.0):
        node._next_finger = self.SLOT
        t = clock.now
        node._fix_fingers()
        clock.run_for(seconds)
        return t

    def test_owner_says_yes_and_nothing_else_moves(self):
        clock, _nodes, tap, node, _start, owner = self.ring()
        t = self.refresh(clock, node)
        assert tap.counts(t)["owns"] == 1
        assert tap.counts(t)["lookup"] == 0
        assert node.fingers[self.SLOT] == owner.ref

    def test_a_no_falls_back_to_lookup(self):
        clock, nodes, tap, node, _start, owner = self.ring()
        wrong = next(n for n in nodes if n not in (node, owner)
                     and n.ref != node.successor)
        node.fingers[self.SLOT] = wrong.ref
        t = self.refresh(clock, node)
        asked = tap.since(t, "owns")
        assert [(e[2], e[3]) for e in asked] == [(node.address, wrong.address)]
        assert tap.counts(t)["lookup"] >= 1
        assert tap.counts(t)["lookup_done"] == 1
        assert node.fingers[self.SLOT] == owner.ref

    def test_silence_suspects_the_finger_and_falls_back(self):
        clock, nodes, tap, node, start, _owner = self.ring()
        dead = next(n for n in nodes if n is not node
                    and n.ref not in node.successors
                    and n.ref != node.predecessor)
        dead.crash()
        node.fingers[self.SLOT] = dead.ref
        t = self.refresh(clock, node, seconds=0.5)
        assert tap.counts(t)["owns"] == 1
        assert tap.counts(t)["lookup"] == 0  # still waiting
        assert not node.is_suspect(dead.address)
        clock.run_for(node.config.rpc_timeout + 3.0)
        assert node.is_suspect(dead.address)
        assert tap.counts(t)["lookup"] >= 1
        assert node.fingers[self.SLOT] == owner_of(nodes, start).ref

    def test_an_empty_slot_looks_up_at_once(self):
        clock, _nodes, tap, node, _start, owner = self.ring()
        node.fingers[self.SLOT] = None
        t = self.refresh(clock, node)
        assert tap.counts(t)["owns"] == 0
        assert tap.counts(t)["lookup"] >= 1
        assert node.fingers[self.SLOT] == owner.ref

    def test_a_suspected_finger_is_not_asked(self):
        clock, _nodes, tap, node, _start, owner = self.ring()
        node._suspect(owner.address)
        t = self.refresh(clock, node)
        assert tap.counts(t)["owns"] == 0
        assert tap.counts(t)["lookup"] >= 1

    def test_slots_the_successor_covers_cost_nothing(self):
        clock, _nodes, tap, node, _start, _owner = self.ring()
        node._next_finger = 0
        t = clock.now
        for _ in range(8):
            node._fix_fingers()
        clock.run_for(3.0)
        assert tap.since(t, "owns") == [] and tap.since(t, "lookup") == []
        assert node.fingers[:8] == [node.successor] * 8


@pytest.mark.usefixtures("one_slot_a_round")
class TestProximityFinger:
    def test_same_region_choice_survives_a_refresh(self):
        regions = {"m{}".format(i): ("us", "eu")[i % 2] for i in range(24)}
        latency = RegionalLatency(SeededRng(9, "lat"), regions=regions,
                                  jitter_sigma=0.0)
        clock, _net, nodes, tap = make_ring(
            24, seed=9, latency=latency, proximity_routing=True)
        for n in nodes:
            n._finger_fixer.stop()
        # A slot whose entry is a proximity choice, not the owner.
        node, slot, start, owner = next(
            (n, k, (n.id + (1 << k)) % ID_SPACE,
             owner_of(nodes, (n.id + (1 << k)) % ID_SPACE))
            for n in nodes for k in range(ID_BITS - 1, ID_BITS - 8, -1)
            if n.fingers[k] != owner_of(nodes, (n.id + (1 << k)) % ID_SPACE).ref
        )
        chosen = node.fingers[slot]
        assert node._region_of(chosen.address) == node.region
        assert node._region_of(owner.address) != node.region
        node._next_finger = slot
        t = clock.now
        node._fix_fingers()
        clock.run_for(3.0)
        # The choice is not the owner, says so, and the lookup's answer
        # goes back through the same proximity preference.
        assert [(e[2], e[3]) for e in tap.since(t, "owns")] == [
            (node.address, chosen.address)]
        assert tap.counts(t)["lookup_done"] == 1
        assert node.fingers[slot] == chosen
