"""Crash/recover at the protocol level, the previous maintenance as oracle.

PR 16 folded three per-period conversations per ring edge into one
(notify rides the stabilise probe, predecessor liveness is passive,
fingers verify before they look up). Cheaper upkeep must not buy slower
healing, so the figures the *parent* commit (5729ab6) produced on the
scenario below are recorded here, per seed, and the current code is held
to them in aggregate.

Scenario, one run per seed: a 32-node oracle-built ring over the
wide-area latency model (finger refresh sped up to a full pass per
50 s, so it is part of the picture) settles for 20 s; six nodes (never the bootstrap)
crash 2 s apart and each rejoins through the protocol 30 s after its own
crash. Every simulated second of the 70 s churn window four live nodes
look up a random key. Measured:

* ``heal_down`` -- seconds from the last crash until the live nodes'
  successor pointers form the ring sorted ids dictate
  (:func:`ring_is_consistent`), capped at the 20 s left before the
  first rejoin;
* ``heal_up`` -- the same, from the last rejoin, with all 32 back;
* ``ok`` / ``asked`` -- lookups answered with the node that owned the
  key, by ground truth over live nodes, when the answer arrived;
* ``dead`` -- ``messages_to_dead_node`` over the whole scenario (the
  current code also counts how many of those are finger-verify probes).

To re-record after a deliberate protocol change, run this file as a
script in the tree that is to become the oracle and paste the table.
"""

from ring_oracle import owner_of, ring_is_consistent

from repro.dht import ring
from repro.dht.bootstrap import build_chord_ring
from repro.dht.chord import ChordNode
from repro.dht.config import DhtConfig
from repro.sim.clock import SimClock
from repro.sim.latency import GeoLatency
from repro.sim.network import Network
from repro.util.ids import ID_SPACE
from repro.util.rng import SeededRng

SEEDS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
NODES = 32
CRASHES = 6
CRASH_GAP = 2.0
DOWNTIME = 30.0
WINDOW = 70.0
HEAL_LIMIT = 60.0
# 32 slots a round: every finger is refreshed twice in the window.
FINGERS_PER_ROUND = 32

# seed: (heal_down, heal_up, ok, asked, dead) at the parent, 5729ab6.
PARENT = {
    1: (5.5, 14.5, 262, 280, 51),
    2: (6.5, 16.0, 266, 280, 47),
    3: (4.0, 8.5, 279, 280, 43),
    4: (4.0, 8.5, 278, 280, 24),
    5: (5.0, 14.5, 271, 280, 33),
    6: (5.0, 9.5, 275, 280, 40),
    7: (1.0, 5.5, 280, 280, 33),
    8: (6.5, 16.0, 266, 280, 32),
    9: (4.0, 13.5, 274, 280, 37),
    10: (5.0, 11.0, 276, 280, 35),
}


def build(seed):
    clock = SimClock()
    rng = SeededRng(seed, "churn16")
    latency = GeoLatency(rng.fork("latency"))
    net = Network(clock, latency, rng.fork("net"))
    cfg = DhtConfig()
    nodes = []
    for i in range(NODES):
        address = "c{}".format(i)
        latency.place_random(address)
        nodes.append(ChordNode(net, address, cfg, rng.fork(address)))
    build_chord_ring(nodes)
    return clock, net, nodes, rng.fork("script")


def seconds_until_consistent(clock, nodes, limit):
    start = clock.now
    while not ring_is_consistent(nodes) and clock.now - start < limit:
        clock.run_for(0.5)
    return clock.now - start


def run_scenario(seed):
    clock, net, nodes, rng = build(seed)
    clock.run_for(20.0)
    assert ring_is_consistent(nodes)
    bootstrap = min(nodes, key=lambda n: n.id)
    pool = [n for n in nodes if n is not bootstrap]
    victims = []
    while len(victims) < CRASHES:
        victims.append(pool.pop(rng.randrange(len(pool))))
    t0 = clock.now
    for i, victim in enumerate(victims):
        clock.schedule(i * CRASH_GAP, victim.crash)
        clock.schedule(i * CRASH_GAP + DOWNTIME, victim.recover)
    last_crash = (CRASHES - 1) * CRASH_GAP
    last_rejoin = last_crash + DOWNTIME

    asked = 0
    answers = []
    probes_to_dead = []

    def tap(src, dst, payload):
        if (payload.kind == "rpc_req" and payload.inner["kind"] == "owns"
                and not net.node(dst).alive):
            probes_to_dead.append(dst)

    net.on_deliver = tap

    def ask():
        nonlocal asked
        live = [n for n in nodes if n.alive]
        for _ in range(4):
            src = live[rng.randrange(len(live))]
            key = rng.randrange(ID_SPACE)
            asked += 1
            src.lookup(key, lambda owner, hops, key=key: answers.append(
                owner is not None and owner == owner_of(nodes, key).ref))

    for second in range(int(WINDOW)):
        clock.schedule(second + 0.25, ask)

    clock.run_until(t0 + last_crash + 0.01)
    heal_down = seconds_until_consistent(
        clock, nodes, DOWNTIME - last_crash - 0.5)
    clock.run_until(t0 + last_rejoin + 0.01)
    heal_up = seconds_until_consistent(clock, nodes, HEAL_LIMIT)
    clock.run_until(max(clock.now, t0 + WINDOW + 15.0))
    return (round(heal_down, 2), round(heal_up, 2), sum(answers), asked,
            net.counters.get("messages_to_dead_node"), len(probes_to_dead))


def totals(table):
    rows = [table[seed] for seed in SEEDS]
    return [sum(column) for column in zip(*rows)]


class TestChurnAgainstParent:
    def test_heals_and_answers_no_worse_than_parent(self, monkeypatch):
        monkeypatch.setattr(ring, "FINGERS_PER_ROUND", FINGERS_PER_ROUND)
        now = {seed: run_scenario(seed) for seed in SEEDS}
        for seed in SEEDS:
            assert now[seed][1] < HEAL_LIMIT, seed
            assert now[seed][3] == PARENT[seed][3]
        down, up, ok, asked, dead, probes_to_dead = totals(now)
        p_down, p_up, p_ok, _asked, p_dead = totals(PARENT)
        # Successor failover is untouched: the ring heals as fast.
        assert down <= p_down, (down, p_down)
        assert up <= p_up, (up, p_up)
        # Lookups: 2 723 of 2 800 against the parent's 2 727. The four
        # are the price of passive predecessor liveness -- an heir can
        # now keep a dead predecessor for up to two check periods (the
        # parent: one), and a lookup for the corpse's keys circles
        # until the heir lets go. Held to that, not to "about the same".
        assert ok >= p_ok - 4, (ok, p_ok)
        # A verify probe to a finger that died is the one new kind of
        # message to a dead node (66 here); everything else must not
        # grow (344 against the parent's 375).
        assert dead - probes_to_dead <= p_dead, (dead, probes_to_dead, p_dead)


if __name__ == "__main__":
    ring.FINGERS_PER_ROUND = FINGERS_PER_ROUND
    for seed in SEEDS:
        print("    {}: {},".format(seed, run_scenario(seed)[:5]))
