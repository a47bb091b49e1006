"""The PIER-facing DHT API.

PIER's published interface to its DHT layer is small and this facade
mirrors it method-for-method (VLDB 2003, section 2):

=============  =====================================================
``put``        publish an item, placed by hash(namespace, resourceId)
``get``        fetch all instances for (namespace, resourceId)
``renew``      extend an item's TTL (soft-state keep-alive)
``lscan``      iterate the items of a namespace stored *at this node*
``new_data``   subscribe to arrivals in a namespace at this node
``route``      deliver an application payload to a key's owner, with
               optional per-hop upcalls (in-network combining)
``broadcast``  disseminate a payload to every reachable node
``direct``     point-to-point message (result return to query site)
=============  =====================================================

Exchange traffic rides ``route`` with ``deliver`` (one row) or
``deliver_batch`` (many co-keyed rows in one message) payloads; the
registered delivery handler receives either shape.

The facade keeps the query engine honest: ``repro.core`` imports only
this class, never the overlay internals, so swapping Chord for another
overlay cannot leak into the engine.
"""


class DhtApi:
    """Per-node facade over a :class:`~repro.dht.chord.ChordNode`."""

    def __init__(self, overlay_node):
        self._node = overlay_node

    @property
    def address(self):
        return self._node.address

    @property
    def node_id(self):
        return self._node.id

    @property
    def clock(self):
        return self._node.clock

    @property
    def alive(self):
        return self._node.alive

    @property
    def region(self):
        """Region label from the topology, or None on a flat ring."""
        return getattr(self._node, "region", None)

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    def put(self, namespace, resource_id, instance_id, value, ttl=None):
        """Publish ``value`` into the DHT under the triple key."""
        self._node.put(namespace, resource_id, instance_id, value, ttl)

    def get(self, namespace, resource_id, on_done, timeout=None):
        """Fetch all instances; ``on_done([(instance_id, value), ...])``."""
        self._node.get(namespace, resource_id, on_done, timeout)

    def renew(self, namespace, resource_id, instance_id, ttl=None):
        self._node.renew(namespace, resource_id, instance_id, ttl)

    def lscan(self, namespace):
        """Locally stored live items (list of StoredItem)."""
        return self._node.lscan(namespace)

    def new_data(self, namespace, callback, ttl=None):
        """Subscribe to arrivals; with ``ttl`` the subscription itself
        is soft state and ages out like everything else stored here.
        Returns a token for :meth:`renew_new_data` -- standing scans
        renew their subscription once per epoch instead of re-scanning.
        """
        return self._node.new_data(namespace, callback, ttl)

    def renew_new_data(self, namespace, token, ttl):
        """Extend a TTL'd subscription; False once it has aged out."""
        return self._node.renew_new_data(namespace, token, ttl)

    def remove_new_data(self, namespace, token=None):
        self._node.remove_new_data(namespace, token)

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def route(self, key, payload, upcall=None):
        self._node.route(key, payload, upcall)

    def fresh_mid(self):
        """A node-unique delivery id (exactly-once exchange delivery)."""
        return self._node.fresh_mid()

    def route_via(self, owner, key, payload):
        """One-hop delivery to a cached owner, with routed fallback."""
        self._node.route_via(owner, key, payload)

    def route_through(self, via, key, payload, upcall=None):
        """Key-route with an explicit first hop (regional rendezvous)."""
        self._node.route_through(via, key, payload, upcall)

    def region_rendezvous(self, key, region=None):
        """This region's deterministic combiner for ``key`` (or None)."""
        return self._node.region_rendezvous(key, region)

    def is_suspect(self, address):
        return self._node.is_suspect(address)

    def register_delivery(self, namespace, handler):
        self._node.register_delivery(namespace, handler)

    def unregister_delivery(self, namespace):
        self._node.unregister_delivery(namespace)

    def set_default_delivery(self, handler):
        self._node.set_default_delivery(handler)

    def on_storage_probe(self, handler):
        """``handler(namespace)`` on get/lscan probes of q|... namespaces."""
        self._node.on_storage_probe(handler)

    def register_intercept(self, name, handler):
        self._node.register_intercept(name, handler)

    def unregister_intercept(self, name):
        self._node.unregister_intercept(name)

    def broadcast(self, payload):
        self._node.broadcast(payload)

    def on_broadcast(self, handler):
        self._node.on_broadcast(handler)

    def direct(self, dst_address, payload):
        self._node.send_direct(dst_address, payload)

    def on_direct(self, handler):
        self._node.on_direct(handler)

    def set_timer(self, delay, callback, *args):
        """Expose node-scoped timers (auto-cancelled on crash)."""
        return self._node.set_timer(delay, callback, *args)

    def cancel_timer(self, event):
        self._node.cancel_timer(event)
