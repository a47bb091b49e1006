"""Message types exchanged by DHT nodes.

Each message has a ``kind`` used for dispatch and a ``category``
(``maintenance`` / ``app``) used by the experiment counters to separate
overlay upkeep traffic from query traffic -- the DHT-scaling bench
reports both.

A message on the wire is a value. ``Network`` hands every receiver
``message.for_receiver()``: most messages are passed by reference and
must be treated as immutable after send. The routing envelope is the
one exception: ``hops``, ``hop_ack``, ``force_terminal`` and ``handed``
of a ``Route`` or ``Lookup`` are rewritten hop by hop by whichever node
holds the message, so each receiver gets its own shallow copy of a
``Route``, a ``Lookup``, or a ``HopBundle`` and each of its parts. A
retransmit then never shares per-hop fields with a first copy still
walking. A ``Route``'s *payload* is shared by those copies: it is never
reassigned or mutated once the message exists, which is what lets it
be sized once per route rather than once per hop.
"""

import copy


class Message:
    kind = "abstract"
    category = "app"

    def wire_size(self):
        """Default size model: category + kind headers only."""
        return 16

    def for_receiver(self):
        """What one delivery hands its receiver: this message itself,
        immutable after send (module docstring)."""
        return self


class RpcRequest(Message):
    kind = "rpc_req"
    category = "maintenance"
    __slots__ = ("req_id", "reply_to", "inner")

    def __init__(self, req_id, reply_to, inner):
        self.req_id = req_id
        self.reply_to = reply_to
        self.inner = inner

    def wire_size(self):
        from repro.util.serde import wire_size

        return 24 + wire_size(self.inner)


class RpcReply(Message):
    kind = "rpc_rep"
    category = "maintenance"
    __slots__ = ("req_id", "inner")

    def __init__(self, req_id, inner):
        self.req_id = req_id
        self.inner = inner

    def wire_size(self):
        from repro.util.serde import wire_size

        return 16 + wire_size(self.inner)


class Lookup(Message):
    """Recursive lookup for the owner of ``target`` (an id, not a node)."""

    kind = "lookup"
    category = "app"
    __slots__ = ("target", "origin", "req_id", "hops", "hop_ack",
                 "force_terminal", "handed", "joining")

    def __init__(self, target, origin, req_id, hops=0):
        self.target = target
        self.origin = origin
        self.req_id = req_id
        self.hops = hops
        self.hop_ack = None  # (address, req) expecting a receipt ack
        self.force_terminal = False  # deliver at next hop (range heir)
        self.handed = False  # the last hop handed the key to its successor
        self.joining = False  # the origin is joining: never route to it

    def for_receiver(self):
        return copy.copy(self)  # its own per-hop fields

    def wire_size(self):
        return 20 + 16 + 8  # id + origin + counters


class LookupDone(Message):
    kind = "lookup_done"
    category = "app"
    __slots__ = ("req_id", "owner", "hops")

    def __init__(self, req_id, owner, hops):
        self.req_id = req_id
        self.owner = owner
        self.hops = hops

    def wire_size(self):
        return 44


class Route(Message):
    """Key-routed application message, the workhorse of PIER traffic.

    ``payload`` is an application-level dict (storage op, exchange
    tuple batch, aggregation partial). ``upcall`` optionally names an
    intercept handler invoked at every hop -- this is how hierarchical
    aggregation combines partials mid-route.
    """

    kind = "route"
    category = "app"
    __slots__ = ("key", "payload", "origin", "hops", "upcall", "hop_ack",
                 "force_terminal", "handed", "_size")

    def __init__(self, key, payload, origin, hops=0, upcall=None):
        self.key = key
        self.payload = payload
        self.origin = origin
        self.hops = hops
        self.upcall = upcall
        self.hop_ack = None  # (address, req) expecting a receipt ack
        self.force_terminal = False  # deliver at next hop (range heir)
        self.handed = False  # the last hop handed the key to its successor
        self._size = None  # remembered by wire_size, hop after hop

    def for_receiver(self):
        return copy.copy(self)  # its own per-hop fields, the payload shared

    def wire_size(self):
        size = self._size
        if size is None:
            from repro.util.serde import wire_size

            # id + origin + counters + the payload, which no hop changes.
            size = self._size = 20 + 16 + 8 + wire_size(self.payload)
        return size


class HopBundle(Message):
    """Every ``Route`` / ``Lookup`` one node forwards to one next hop
    at one instant, under ONE receipt ack.

    The acked hop is the unit that batches: the parts are whole
    messages (each keeps its key, origin and counters, and is sized as
    if it travelled alone), the receiver acks the bundle once and then
    handles every part exactly as if it had arrived by itself. What
    the parts share is what is per *wire message*: one latency and one
    loss draw, one ``hop_ack``, one guard timer at the sender.
    """

    kind = "hop_bundle"
    category = "app"
    __slots__ = ("parts", "hop_ack")

    def __init__(self, parts):
        self.parts = parts
        self.hop_ack = None  # (address, req), as on a lone Route

    def for_receiver(self):
        bundle = copy.copy(self)
        bundle.parts = [part.for_receiver() for part in self.parts]
        return bundle

    def wire_size(self):
        # kind/category header + the one ack slot + every part in full.
        return 16 + 8 + sum(part.wire_size() for part in self.parts)


def parts_of(wire):
    """The messages one wire message carries: a hop bundle's parts,
    anything else itself. For delivery taps that look for routed
    payloads (``Network.on_deliver`` sees the bundle, not its parts)."""
    return wire.parts if wire.kind == "hop_bundle" else (wire,)


class Broadcast(Message):
    """Finger-table broadcast (query dissemination).

    ``limit`` bounds the id range this copy is responsible for covering;
    the sender partitions its fingers' ranges so every live node receives
    exactly one copy in a stable overlay.
    """

    kind = "broadcast"
    category = "app"
    __slots__ = ("payload", "limit", "origin", "depth", "ack_to", "req")

    def __init__(self, payload, limit, origin, depth=0, ack_to=None, req=None):
        self.payload = payload
        self.limit = limit
        self.origin = origin
        self.depth = depth
        self.ack_to = ack_to  # address expecting a delivery ack
        self.req = req  # correlation id for that ack

    def wire_size(self):
        from repro.util.serde import wire_size

        return 20 + 16 + 4 + wire_size(self.payload)


class StoreItems(Message):
    """Bulk key transfer (join handoff or graceful leave).

    ``mids`` rides along with the keys: the sender's consumed delivery
    ids (with their forget-at deadlines). The heir takes over dedup
    duty together with the range, so an in-flight retransmission of a
    delivery the departed owner already consumed is dropped at the
    successor instead of double-counted.
    """

    kind = "store_items"
    category = "maintenance"
    __slots__ = ("items", "mids")

    def __init__(self, items, mids=None):
        self.items = items
        self.mids = mids or {}

    def wire_size(self):
        from repro.util.serde import wire_size

        return (8 + sum(wire_size(i.value) + 28 for i in self.items)
                + 24 * len(self.mids))


class Direct(Message):
    """Point-to-point application message (result return to query site)."""

    kind = "direct"
    category = "app"
    __slots__ = ("payload",)

    def __init__(self, payload):
        self.payload = payload

    def wire_size(self):
        from repro.util.serde import wire_size

        return 8 + wire_size(self.payload)
