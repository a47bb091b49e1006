"""The DHT layer's four knobs.

Maintenance periods, list lengths and TTLs are not knobs: they are
module constants in ``dht/chord.py`` beside their one reader, which
also says how the maintenance clocks relate to one another.
"""


class DhtConfig:
    """Defaults are scaled to the simulator's wide-area latency model
    (one-way delays of 2-150 ms, worst about 0.2 s).

    Each survivor is set to a non-default value by a gated exhibit or a
    perf bench; a value nothing outside tests sets is a module constant.

    ========================== ======= ==================================
    knob                       default who sets it otherwise, and why
    ========================== ======= ==================================
    ``rpc_timeout``            0.8     ``bench_admission_elasticity``'s
                                       service-queue load point (queued
                                       replies outlive >2x the worst RTT,
                                       which is what the default is)
    ``lookup_timeout``         3.0     same: a whole routed lookup or
                                       ``get`` under that queueing
    ``hop_retransmit_timeout`` 0.4     same. One worst-case RTT: how
                                       long the *retransmit* of a
                                       dup-sensitive hop waits before
                                       the hop is suspected; short caps
                                       what the retransmit adds over
                                       rerouting at once
    ``proximity_routing``      False   ``bench_geo_regions``, the sharing
                                       fuzz's regional leg: same-region
                                       peers win finger slots, next hops
                                       within a 2x-distance band and
                                       reroute heirs. False is the flat
                                       reference leg; on engages only on
                                       a region-labelled topology
    ========================== ======= ==================================
    """

    def __init__(
        self,
        rpc_timeout=0.8,
        lookup_timeout=3.0,
        hop_retransmit_timeout=0.4,
        proximity_routing=False,
    ):
        self.rpc_timeout = rpc_timeout
        self.lookup_timeout = lookup_timeout
        self.hop_retransmit_timeout = hop_retransmit_timeout
        self.proximity_routing = proximity_routing
