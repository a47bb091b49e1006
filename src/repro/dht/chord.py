"""Chord: the primary overlay under PIER.

Implements the full protocol from Stoica et al. (SIGCOMM 2001), the DHT
the demo paper cites as its canonical substrate, hardened with the
Bamboo-style techniques of the paper's churn reference [6] (Rhea et al.,
USENIX 2004): *periodic* rather than reactive recovery, timeout-driven
failure suspicion, and hop-by-hop acknowledgment of routed messages with
re-forwarding around suspected-dead hops.

Feature inventory:

* recursive multi-hop lookups via finger tables (O(log N) hops),
* successor lists for resilience to node failure,
* periodic stabilize / fix-fingers / check-predecessor,
* key handoff on join and on graceful :meth:`~ChordNode.leave`,
* soft-state storage of application items (``put/get/renew/lscan``),
* key-routed application messages with per-hop *upcalls* -- the hook
  PIER's hierarchical aggregation uses to combine partial aggregates on
  their way up the routing tree,
* finger-table broadcast for query dissemination, with ack/repair so a
  dead finger's delegated range is re-routed to its live owner,
* an opaque digest riding the stabilise probe, for the layer above to
  gossip with its ring neighbours (PIER's plan anti-entropy).

This module holds the node's public surface and its message dispatch;
the ring's membership and upkeep live in :mod:`repro.dht.ring`, and how
a message travels in :mod:`repro.dht.routing`. A :class:`ChordNode` is
a :class:`~repro.sim.node.SimNode`: it fails by crashing (losing all
soft state) and recovers by re-joining through a bootstrap address.
"""

from repro.dht import messages as msg
from repro.dht.ring import Ring
from repro.dht.routing import Routing
from repro.dht.rpc import RpcNode
from repro.dht.storage import SoftStateStore, storage_key
from repro.sim.node import SimNode
from repro.util.ids import ID_BITS, distance_cw, node_id_for

LOOKUP_RETRIES = 2
DEFAULT_TTL = 120.0  # put/renew without a ttl


class NodeRef:
    """An (id, address) pair -- how nodes refer to each other."""

    __slots__ = ("id", "address")

    def __init__(self, node_id, address):
        self.id = node_id
        self.address = address

    def __eq__(self, other):
        return isinstance(other, NodeRef) and self.id == other.id

    def __hash__(self):
        return hash(self.id)

    def wire_size(self):
        return 28

    def __repr__(self):
        return "NodeRef({:08x}.., {!r})".format(self.id >> (ID_BITS - 32), self.address)


class ChordNode(SimNode, RpcNode, Ring, Routing):
    """One Chord participant with PIER's storage API grafted on.

    Each node's :class:`~repro.core.engine.PierEngine` calls this
    object directly. PIER's published interface to its DHT layer is
    small (VLDB 2003, section 2), and these public methods are it:

    ===============  ===================================================
    ``put``          publish an item, placed by hash(namespace, resourceId)
    ``get``          fetch all instances for (namespace, resourceId)
    ``renew``        extend an item's TTL (soft-state keep-alive)
    ``lscan``        iterate the items of a namespace stored *at this node*
    ``new_data``     subscribe to arrivals in a namespace at this node
    ``route``        deliver an application payload to a key's owner, with
                     optional per-hop upcalls (in-network combining)
    ``on_deliver``   the one handler for routed application payloads
                     that arrive at this node as their key's owner
    ``broadcast``    disseminate a payload to every reachable node
    ``send_direct``  point-to-point message (result return to query site)
    ===============  ===================================================

    A routed payload that is not a storage op reaches ``on_deliver``
    once per delivery id (``mid``); the overlay reads nothing else of
    it. The engine's other calls -- ``route_via`` / ``route_through``,
    timers, intercepts -- serve its owner caches, regional trees and
    plan adoption.
    """

    def __init__(self, network, address, config, rng):
        super().__init__(network, address)
        self._init_rpc(config.rpc_timeout)
        self.config = config
        self.rng = rng
        self.id = node_id_for(address)
        self.ref = NodeRef(self.id, address)
        self.store = SoftStateStore(self.clock)
        self._intercepts = {}
        self._delivery_handler = None
        self._broadcast_handlers = []
        self._direct_handlers = []
        self._init_ring(rng)
        self._init_routing()

    def crash(self):
        self._stop_maintenance()
        self.forget_requests()
        # Nothing in the outbox has left the node; its timer dies with
        # the node's other timers.
        self._outbox.clear()
        self._outbox_timer = None
        self.store.clear()
        self._suspects.clear()
        self._seen_broadcasts.clear()
        self._seen_mids.clear()
        # Intercepts point into executions that died with the engine.
        self._intercepts.clear()
        super().crash()

    def recover(self, bootstrap_address=None):
        """Rejoin after a crash. Soft state is gone; same id, fresh store."""
        super().recover()
        self.successors = [self.ref]
        self.predecessor = None
        self.fingers = [None] * ID_BITS
        target = bootstrap_address or self._bootstrap_address
        if target is None or target == self.address:
            self.create_ring()
        else:
            self.join(target)

    def region_rendezvous(self, key, region=None):
        """The region's deterministic meeting point for ``key``.

        The first region member clockwise of ``key`` (skipping locally
        suspected peers), so every member of a region independently
        picks the same in-region combiner for a routing key -- the
        region-local level of a two-level aggregation tree. Returns
        None when the topology has no region directory.
        """
        region = region if region is not None else self.region
        if region is None:
            return None
        best = None
        best_distance = None
        for address in self.network.latency.members(region):
            if address != self.address and self.is_suspect(address):
                continue
            node_id = node_id_for(address)
            d = distance_cw(key, node_id)
            if best_distance is None or d < best_distance:
                best = NodeRef(node_id, address)
                best_distance = d
        return best

    def lookup(self, key, on_done):
        """Find the owner of ``key``; ``on_done(owner_ref, hops)``.

        ``owner_ref`` is None if every retry timed out (network
        partition, or the ring collapsed under us).
        """
        self._lookup_attempt(key, on_done, LOOKUP_RETRIES)

    def route(self, key, payload, upcall=None):
        """Route ``payload`` toward the owner of ``key``.

        If ``upcall`` names a registered intercept, the intercept runs at
        every *subsequent* hop (not at the origin) and may absorb or
        transform the message -- PIER's in-network combining hook.
        """
        message = msg.Route(key, payload, self.ref, hops=0, upcall=upcall)
        self._advance(message, key, frozenset())

    def route_via(self, owner, key, payload):
        """Ship a key-routed payload straight to a previously learned owner.

        Standing continuous queries route the same epoch-free exchange
        keys every epoch; once the terminal node is known, one direct
        hop replaces the O(log N) recursive walk. The send is an
        ordinary acked hop (see :meth:`_send_hop`: retransmit once, so
        a live owner whose ack was lost dedups the copy instead of an
        heir double-counting it); an owner that stays silent is
        suspected and the message goes back to normal key routing
        around it, so a stale cache costs a timeout rather than lost --
        or duplicated -- rows.
        """
        message = msg.Route(key, payload, self.ref, hops=0)
        message.force_terminal = True  # deliver at the cached owner

        def back_to_key_routing():
            message.force_terminal = False
            message.hop_ack = None

        self._send_hop(owner, message, key, frozenset(), back_to_key_routing)

    def route_through(self, via, key, payload, upcall=None):
        """Key-route ``payload`` with an explicit first hop at ``via``.

        The regional-tree send: the first hop goes to the region's
        rendezvous (see :meth:`region_rendezvous`) where the upcall
        intercept absorbs the partial into the region-local combiner;
        whatever the combiner later forwards resumes normal key routing
        toward the global owner. Unlike :meth:`route_via` the message
        is NOT flagged terminal -- the via node runs the ordinary
        per-hop upcall path, so absorption (not delivery) happens
        there. If the via is silent the hop machinery suspects it and
        re-routes toward the key as usual, so a dead rendezvous costs a
        timeout, never rows.
        """
        message = msg.Route(key, payload, self.ref, hops=0, upcall=upcall)
        if via == self.ref or via.address == self.address:
            # We are the rendezvous: take the intercept path locally,
            # exactly as if the message had just arrived here.
            self._handle_route(message)
            return
        self._send_hop(via, message, key, frozenset())

    def register_intercept(self, name, handler):
        """``handler(node, route_msg, at_owner) -> bool`` (True = forward)."""
        self._intercepts[name] = handler

    def unregister_intercept(self, name):
        self._intercepts.pop(name, None)

    def on_deliver(self, handler):
        """``handler(payload, route_msg)`` receives every routed app
        payload this node terminates, once per delivery id."""
        self._delivery_handler = handler

    def on_neighbor_digest(self, provider, handler):
        """Gossip an opaque digest along the ring's stabilise probes.

        ``provider()`` is asked for a digest each time this node probes
        its successor; a non-None answer rides the ``get_neighbors``
        request, None adds no bytes. The probed node hands what arrived
        to its ``handler(digest, src)`` -- None when the prober had
        nothing to advertise -- after it answered the probe. The overlay
        neither reads nor compares digests; what they summarise and what
        a mismatch costs is the caller's business.
        """
        self._digest_provider = provider
        self._digest_handler = handler

    def on_broadcast(self, handler):
        """``handler(payload, origin_ref, depth)`` runs once per broadcast."""
        self._broadcast_handlers.append(handler)

    def broadcast(self, payload):
        """Disseminate ``payload`` to every reachable node, O(log N) depth.

        Classic finger-table broadcast: each node covers ``(self, limit)``
        and delegates disjoint sub-ranges to its fingers, so each live
        node receives the message exactly once in a stable overlay.

        Dead fingers would silently sever their whole delegated range, so
        every child delivery is acked; an unacked range is *repaired* by
        key-routing the broadcast to the range's live owner, who resumes
        the relay. Under heavy churn some nodes may still be missed --
        which is exactly why the paper's Figure 1 plots the aggregate
        over "responding nodes" rather than all nodes.
        """
        self._deliver_broadcast(msg.Broadcast(payload, self.id, self.ref, 0))
        self._relay_broadcast(payload, self.id, 0)

    # ------------------------------------------------------------------
    # PIER storage API
    # ------------------------------------------------------------------
    def put(self, namespace, resource_id, instance_id, value, ttl=None):
        """Publish an item into the DHT (routed to the key's owner)."""
        ttl = ttl if ttl is not None else DEFAULT_TTL
        key = storage_key(namespace, resource_id)
        self.route(key, {
            "op": "put", "ns": namespace, "rid": resource_id,
            "iid": instance_id, "value": value, "ttl": ttl,
        })

    def renew(self, namespace, resource_id, instance_id, ttl=None):
        ttl = ttl if ttl is not None else DEFAULT_TTL
        key = storage_key(namespace, resource_id)
        self.route(key, {
            "op": "renew", "ns": namespace, "rid": resource_id,
            "iid": instance_id, "ttl": ttl,
        })

    def get(self, namespace, resource_id, on_done, timeout=None):
        """Fetch all instances under (namespace, resource_id).

        ``on_done(values)`` receives ``[(instance_id, value), ...]``;
        an empty list on timeout (indistinguishable, by design, from
        "nothing stored" -- soft state has no negative acks).
        """
        timeout = timeout if timeout is not None else self.config.lookup_timeout
        req = self.expect(timeout, on_done, lambda: on_done([]))
        key = storage_key(namespace, resource_id)
        self.route(key, {
            "op": "get", "ns": namespace, "rid": resource_id,
            "reply_to": self.address, "req": req,
        })

    def lscan(self, namespace):
        """Locally stored live items of a namespace (PIER's scan access)."""
        return self.store.lscan(namespace)

    def new_data(self, namespace, callback, ttl=None):
        """Subscribe to arrivals in a namespace stored at this node.

        ``ttl`` makes the subscription soft state: the store's sweeper
        drops it once expired, so a subscriber that dies with an epoch
        can never leak its callback. Returns the subscription token for
        :meth:`renew_new_data`.
        """
        return self.store.on_new_data(namespace, callback, ttl)

    def renew_new_data(self, namespace, token, ttl):
        """Extend a TTL'd subscription (standing scans renew per epoch)."""
        return self.store.renew_new_data(namespace, token, ttl)

    def remove_new_data(self, namespace, token=None):
        self.store.remove_new_data(namespace, token)

    def send_direct(self, dst_address, payload):
        """Point-to-point app message (PIER uses this for result return)."""
        self.send(dst_address, msg.Direct(payload))

    def on_direct(self, handler):
        self._direct_handlers.append(handler)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def handle_message(self, src, payload):
        self._absolve(src)  # hearing from a node proves it is alive
        if self.handle_rpc_message(src, payload):
            return
        kind = payload.kind
        if kind == "lookup":
            self._handle_lookup(payload)
        elif kind == "lookup_done":
            self.settle(payload.req_id, payload.owner, payload.hops)
        elif kind == "route":
            self._handle_route(payload)
        elif kind == "hop_bundle":
            self._handle_hop_bundle(payload)
        elif kind == "broadcast":
            self._handle_broadcast(payload)
        elif kind == "store_items":
            self._handle_store_items(payload)
        elif kind == "direct":
            self._handle_direct(payload, src)
        else:  # pragma: no cover - defensive
            raise ValueError("unhandled message kind {!r}".format(kind))

    def _handle_direct(self, message, src):
        inner = message.payload
        op = inner.get("op") if isinstance(inner, dict) else None
        if op == "hop_ack" or op == "bcast_ack":
            self.settle(inner["req"])
            return
        if op == "get_reply":
            self.settle(inner["req"], inner["values"])
            return
        for handler in self._direct_handlers:
            handler(inner, src)
