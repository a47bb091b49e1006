"""Tunables for the DHT layer.

Defaults are scaled to the simulator's wide-area latency model (one-way
delays of 2-150 ms): RPC timeouts comfortably above the worst RTT,
maintenance periods matching Bamboo's defaults from the churn paper the
demo cites (periodic, not reactive, recovery).

The three maintenance periods are three clocks over *one* conversation
per ring edge, not three independent probes:

* ``stabilize_period`` -- every node probes its successor
  (``get_neighbors``, one request and one reply). The probe names the
  prober, so it is also the notify and, for the receiver, its
  predecessor's keep-alive. A silent successor is replaced
  ``rpc_timeout`` after the probe.
* ``check_predecessor_period`` -- how long a predecessor may stay
  silent before it is pinged; a settled ring never pings, because the
  predecessor's probe arrives every ``stabilize_period``. Keep it
  above ``stabilize_period``, or every check finds a "silent"
  predecessor and pings as the old protocol did. Worst case from a
  predecessor's last probe to its eviction:
  ``2 * check_predecessor_period + rpc_timeout``.
* ``fix_fingers_period`` -- ``fingers_per_round`` finger slots are
  refreshed per round: slots the successor covers cost nothing, a
  populated slot further out costs one ``owns`` RPC to the finger
  (its only liveness probe), and the routed lookup runs only when
  that says no or times out, or the slot is empty or suspected.
"""


class DhtConfig:
    def __init__(
        self,
        stabilize_period=5.0,
        fix_fingers_period=10.0,
        check_predecessor_period=7.0,
        successor_list_length=4,
        fingers_per_round=8,
        # The latency model's worst one-way delay is ~0.2 s, so 0.8 s is
        # >2x the worst RTT: fast enough that routing around a freshly
        # dead hop costs well under a second per discovery.
        rpc_timeout=0.8,
        lookup_timeout=3.0,
        lookup_retries=2,
        storage_sweep_period=5.0,
        default_ttl=120.0,
        suspect_ttl=30.0,
        graceful_leave=False,
        # How long a received exchange-delivery id is remembered to
        # drop replays (hop-by-hop acks make routed forwarding
        # at-least-once; a delivered message whose ack was lost is
        # re-forwarded). Must comfortably outlive the longest
        # retry chain: lookup_timeout x retries plus routing slack.
        delivery_dedup_ttl=30.0,
        # How long a retransmitted (same-hop, same delivery id) exchange
        # message waits for its ack before the hop is suspected and the
        # message rerouted. One worst-case RTT: a live hop whose ack was
        # lost answers the retransmit within that; a dead hop never
        # will, so keeping this short caps the extra discovery latency
        # the retransmit adds over immediate rerouting.
        hop_retransmit_timeout=0.4,
        # Proximity neighbor selection: when the topology labels nodes
        # with regions, prefer same-region peers for finger slots, for
        # next hops within a 2x-distance band, and for reroute heirs.
        # Off by default -- the flat ring stays the baseline.
        proximity_routing=False,
    ):
        if successor_list_length < 1:
            raise ValueError("successor list must hold at least one entry")
        self.stabilize_period = stabilize_period
        self.fix_fingers_period = fix_fingers_period
        self.check_predecessor_period = check_predecessor_period
        self.successor_list_length = successor_list_length
        self.fingers_per_round = fingers_per_round
        self.rpc_timeout = rpc_timeout
        self.lookup_timeout = lookup_timeout
        self.lookup_retries = lookup_retries
        self.storage_sweep_period = storage_sweep_period
        self.default_ttl = default_ttl
        self.suspect_ttl = suspect_ttl
        self.graceful_leave = graceful_leave
        self.delivery_dedup_ttl = delivery_dedup_ttl
        self.hop_retransmit_timeout = hop_retransmit_timeout
        self.proximity_routing = proximity_routing
