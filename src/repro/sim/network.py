"""The simulated network: message delivery, loss, and node liveness.

Every inter-node interaction in the system -- DHT routing, query
dissemination, rehash traffic, result return -- goes through
:meth:`Network.send`, so the per-experiment message and byte counters
collected here are complete.
"""

from repro.sim.latency import ConstantLatency, LatencyModel
from repro.util.errors import SimulationError
from repro.util.serde import wire_size
from repro.util.stats import Counter


class NetworkConfig:
    """Tunables for message transport.

    ``service_time`` models receive-side processing capacity: each
    node handles one message per ``service_time`` seconds, so messages
    converging on one destination queue behind each other and delivery
    lag grows with offered load instead of staying a pure propagation
    delay. 0 (the default) keeps the classic infinitely-fast receiver
    -- the load-management benchmarks turn it on to make overload
    *visible* as tail latency.
    """

    def __init__(self, loss_rate=0.0, service_time=0.0):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.loss_rate = loss_rate
        self.service_time = service_time


class Network:
    """Registry of nodes plus the transport between them."""

    def __init__(self, clock, latency=None, rng=None, config=None):
        self.clock = clock
        self.latency = latency if latency is not None else ConstantLatency()
        # ``send``'s region directory; None on an unlabelled topology.
        self._region_of = (None if type(self.latency).region_of is LatencyModel.region_of
                           else self.latency.region_of)
        self._rng = rng
        self.config = config if config is not None else NetworkConfig()
        self._nodes = {}
        self._partitioned = set()  # regions currently cut off the backbone
        self.counters = Counter()
        # Per-destination inbound accounting: the "fan-in at the query
        # site" metric the in-network-aggregation claim is about.
        self.inbound_bytes = {}
        self.inbound_messages = {}
        # Per-destination service queue (config.service_time > 0):
        # when each receiver is busy-until.
        self._busy_until = {}
        # kind -> its ("messages_kind_<kind>", "bytes_kind_<kind>")
        # counter names, formatted once per kind instead of per message.
        self._kind_counters = {}
        # Optional observer ``on_deliver(src, dst, payload)``, called
        # for every message whose latency has elapsed -- before the
        # liveness check, so it also sees arrivals at dead nodes. The
        # taps benches and tests hang on delivery go here.
        self.on_deliver = None

    # ------------------------------------------------------------------
    # Node registry
    # ------------------------------------------------------------------
    def register(self, node):
        if node.address in self._nodes:
            raise SimulationError("address {!r} already registered".format(node.address))
        self._nodes[node.address] = node

    def node(self, address):
        return self._nodes.get(address)

    def addresses(self):
        return list(self._nodes)

    def live_addresses(self):
        return [a for a, n in self._nodes.items() if n.alive]

    def is_alive(self, address):
        node = self._nodes.get(address)
        return node is not None and node.alive

    def __len__(self):
        return len(self._nodes)

    # ------------------------------------------------------------------
    # Region partitions
    # ------------------------------------------------------------------
    def partition_region(self, region):
        """Cut ``region`` off the backbone: every message between the
        region and the rest of the topology is dropped while the
        partition holds. Intra-region traffic (and traffic among the
        other regions) is untouched -- nodes stay alive with all their
        state, unlike a crash. Requires a region-labelled latency model.
        """
        self._partitioned.add(region)

    def heal_region(self, region):
        """Reconnect a partitioned region to the backbone."""
        self._partitioned.discard(region)

    def _severed(self, ra, rb):
        """Is the (ra, rb) link cut by a live partition?"""
        if not self._partitioned or ra == rb:
            return False
        return ra in self._partitioned or rb in self._partitioned

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def send(self, src, dst, payload):
        """Deliver ``payload`` from ``src`` to ``dst`` after a latency delay.

        Messages to dead or unknown nodes are silently dropped, exactly
        like UDP to a crashed host: the sender learns nothing unless a
        higher layer (the DHT's RPC timeouts) notices.
        """
        self.counters.add("messages_sent")
        kind = getattr(payload, "kind", None)
        if kind is None and isinstance(payload, dict):
            kind = payload.get("kind", "dict")
        size = wire_size(payload)
        self.counters.add("bytes_sent", size)
        if kind is not None:
            names = self._kind_counters.get(kind)
            if names is None:
                names = self._kind_counters[kind] = (
                    "messages_kind_{}".format(kind),
                    "bytes_kind_{}".format(kind),
                )
            self.counters.add(names[0])
            self.counters.add(names[1], size)
        cross = False
        severed = False
        region_of = self._region_of
        if region_of is not None:
            ra, rb = region_of(src), region_of(dst)
            if ra is not None and rb is not None and ra != rb:
                cross = True
                self.counters.add("cross_region_messages")
                self.counters.add("cross_region_bytes", size)
            severed = self._severed(ra, rb)
        parts = 1
        if kind == "route":
            self._count_exchange_hop(payload, size, cross)
        elif kind == "hop_bundle":
            # Several routed messages under one ack: the exchange
            # counters keep counting payloads hop by hop, part by part.
            parts = len(payload.parts)
            for part in payload.parts:
                if part.kind == "route":
                    self._count_exchange_hop(part, part.wire_size(), cross)
        if severed:
            # A live region partition: the message crosses a cut link
            # and vanishes, exactly like loss -- the sender learns
            # nothing until an RPC timeout fires.
            self.counters.add("messages_partitioned")
            return
        if self.config.loss_rate > 0 and self._rng is not None:
            if self._rng.random() < self.config.loss_rate:
                self.counters.add("messages_lost")
                return
        delay = self.latency.delay(src, dst)
        service = self.config.service_time
        if service > 0.0:
            # Queue behind the destination's in-flight work: the
            # message is handled when the receiver frees up, one
            # service_time after whichever is later -- its arrival or
            # the previous message's completion. A hop bundle is as
            # much work as its parts sent one by one.
            now = self.clock.now
            arrival = now + delay
            start = max(arrival, self._busy_until.get(dst, 0.0))
            done = start + service * parts
            self._busy_until[dst] = done
            self.counters.add("service_wait", start - arrival)
            delay = done - now
        self.clock.schedule(delay, self._deliver, src, dst, payload, size)

    def _count_exchange_hop(self, message, size, cross=False):
        """Per-hop accounting of exchange traffic (batched vs not).

        ``exchange_rows`` counts tuple *send attempts*, hop by hop
        (under loss a retransmitted hop counts again), so in a lossless
        run batched and unbatched runs of one workload agree on it
        while ``exchange_messages`` (and the hop acks it drags along)
        shrink with batching -- the ratio is the amortization the
        batching layer buys. ``cross`` marks a hop whose endpoints
        live in different regions -- the backbone share of the exchange
        traffic regional trees aim to shrink.
        """
        inner = getattr(message, "payload", None)
        if not isinstance(inner, dict):
            return
        op = inner.get("op")
        if op == "deliver":
            self.counters.add("exchange_messages")
            self.counters.add("exchange_rows")
        elif op == "deliver_batch":
            self.counters.add("exchange_messages")
            self.counters.add("exchange_batches")
            cols = inner.get("cols")
            if cols is not None:
                # Columnar wire shape: row count is any column's length.
                self.counters.add("exchange_rows",
                                  len(cols[0]) if cols else 0)
            else:
                self.counters.add("exchange_rows", len(inner["rows"]))
        else:
            return
        if cross:
            self.counters.add("exchange_cross_region_messages")
        self.counters.add("exchange_bytes", size)
        if cross:
            self.counters.add("exchange_cross_region_bytes", size)

    def _deliver(self, src, dst, payload, size):
        """Hand ``payload`` to ``dst``. ``size`` is what :meth:`send`
        measured: a payload is sized once, and must not change between
        ``send`` and delivery."""
        if self.on_deliver is not None:
            self.on_deliver(src, dst, payload)
        node = self._nodes.get(dst)
        if node is None or not node.alive:
            self.counters.add("messages_to_dead_node")
            return
        self.counters.add("messages_delivered")
        self.inbound_bytes[dst] = self.inbound_bytes.get(dst, 0) + size
        self.inbound_messages[dst] = self.inbound_messages.get(dst, 0) + 1
        node.handle_message(src, payload)

    def broadcast_local(self, src, payload):
        """Deliver ``payload`` to every live node (test/bench helper only).

        Real PIER never does this -- dissemination rides the overlay --
        but baselines (flooding) and test fixtures use it.
        """
        for address in self.live_addresses():
            if address != src:
                self.send(src, address, payload)
