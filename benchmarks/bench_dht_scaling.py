"""Ext-C: DHT routing scalability -- the substrate claim.

"Routing proceeds in a multi-hop fashion; each node maintains only a
small set of neighbors" (paper §2). The measurable consequence:

* Chord lookups take O(log N) hops as N grows 16 -> 512,
* per-node maintenance traffic stays roughly flat in N (each node
  talks to O(log N) neighbors, not to everyone).
"""

import math

from benchmarks._harness import fmt_table, full_scale, report
from repro.dht.bootstrap import build_chord_ring
from repro.dht.chord import ChordNode, storage_key
from repro.dht.config import DhtConfig
from repro.sim.clock import SimClock
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from repro.util.rng import SeededRng

PROBES = 200


def chord_mean_hops(n, seed):
    clock = SimClock()
    rng = SeededRng(seed, "chord-scale")
    net = Network(clock, ConstantLatency(0.02), rng.fork("net"))
    nodes = [
        ChordNode(net, "n{}".format(i), DhtConfig(), rng.fork("c{}".format(i)))
        for i in range(n)
    ]
    build_chord_ring(nodes)
    clock.run_for(5)
    maintenance_before = net.counters.get("messages_sent")
    t_before = clock.now
    hops = []
    for i in range(PROBES):
        nodes[i % n].lookup(storage_key("probe", i), lambda o, h: hops.append(h))
    clock.run_for(30)
    maintenance_rate = (
        (net.counters.get("messages_sent") - maintenance_before - len(hops) * 8)
        / (clock.now - t_before) / n
    )
    return sum(hops) / len(hops), len(hops), max(0.0, maintenance_rate)


def test_dht_scaling():
    sizes = [16, 32, 64, 128, 256, 512] if full_scale() else [16, 32, 64, 128, 256]

    rows = []
    for n in sizes:
        chord_hops, chord_done, upkeep = chord_mean_hops(n, seed=3)
        rows.append((
            n, round(chord_hops, 2), round(math.log2(n), 1),
            round(upkeep, 1), chord_done,
        ))

    text = "Ext-C: DHT routing scalability (mean lookup hops)\n"
    text += "({} probes per point)\n\n".format(PROBES)
    text += fmt_table(
        ["nodes", "chord hops", "log2(N)", "upkeep msg/s/node", "chord ok"],
        rows,
    )
    report("dht_scaling", text)

    # Completeness: essentially every probe resolved.
    for row in rows:
        assert row[4] >= PROBES * 0.99
    # Chord grows logarithmically: hops bounded by log2(N) and the
    # increase from N to 16N is mild.
    for row in rows:
        assert row[1] <= row[2] + 1
    first, last = rows[0], rows[-1]
    assert last[1] / first[1] < math.log2(last[0]) / math.log2(first[0]) + 1.0
