"""Learned terminal owners: the one owner-route rule of standing edges.

A standing exchange routes the same epoch-free key every epoch, so
once a key's terminal owner is known a payload can go to it in one hop
(``route_via``) instead of re-walking the ring. The owner is learned by
asking: a payload that walks with ``learn`` set makes the node that
terminates its key answer ``xowner`` with its own ref. A cache-directed
payload that lands on a node that no longer owns the key is delivered
anyway, and the origin is told ``xowner_stale`` to forget the entry.

Tree edges use the same cache the other way round, to tell when the
stable rendezvous is failing: while a key's learned owner is suspect,
a tree partial walks a per-epoch *salted* key instead, a fresh
rendezvous away from the dying node, without forgetting the owner,
whose suspicion may clear. Salting is promotion-only and sticky: a
partial that ever travelled the salted key keeps the mark through
every combiner forward. Each hop re-deciding from its own cache would
let two nodes that disagree about the owner's health bounce a combined
partial between the two keys forever.

:meth:`OwnerCache.route` is the one place that decides a standing
payload's key, ``learn`` and ``salted`` and its direct owner, for both
callers (``Exchange._route`` and ``TreeCombiner._forward``). Disposable
edges never read the cache.
"""

from repro.dht.chord import storage_key

# How long a learned owner is trusted before the key walks again.
# Owners in another region expire on the shorter TTL: a cross-region
# owner cached just before a partition would otherwise pin post-rejoin
# forwards onto the backbone.
ROUTE_CACHE_TTL = 120.0
CROSS_REGION_CACHE_TTL = 30.0
# The direct-message ops the engine hands to ``OwnerCache.on_reply``.
OWNER_OPS = ("xowner", "xowner_stale")


def epoch_route_ns(route_ns, epoch):
    """The per-epoch salted routing namespace of a standing tree edge:
    the fallback rendezvous while a key's learned owner is suspect."""
    return "{}|e{}".format(route_ns, epoch)


class OwnerCache(dict):
    """One engine's learned owners: ``(ns, rid) -> (NodeRef, expiry,
    region)``. The region rides along so cross-region owners can expire
    on ``CROSS_REGION_CACHE_TTL``."""

    def __init__(self, dht):
        super().__init__()
        self.dht = dht

    def learned(self, ns, rid):
        """The unexpired entry's ref, or None; an expired entry is
        reclaimed."""
        entry = self.get((ns, rid))
        if entry is None:
            return None
        if entry[1] <= self.dht.clock.now:
            del self[(ns, rid)]
            return None
        return entry[0]

    def route(self, ns, route_ns, rid, payload, salt):
        """A standing payload's routing key and the owner to send it to
        directly (None: walk the key).

        With ``salt`` (unpaned tree edges) a payload already marked
        ``salted``, or one whose learned owner is suspect, walks the
        epoch-salted key and neither learns nor goes direct. Otherwise
        the key is the stable one; a suspect owner is forgotten, and a
        payload with no owner known asks the terminal to identify
        itself (``learn``).
        """
        owner = self.learned(ns, rid)
        suspect = owner is not None and self.dht.is_suspect(owner.address)
        if salt and (suspect or payload.get("salted")):
            payload["salted"] = True
            salted_ns = epoch_route_ns(route_ns, payload["epoch"])
            return storage_key(salted_ns, rid), None
        if suspect:
            del self[(ns, rid)]
            owner = None
        if owner is None:
            payload["learn"] = True
        return storage_key(route_ns, rid), owner

    def answer(self, payload, route_msg):
        """Terminal side, for a payload this node's DHT delivered."""
        dht = self.dht
        origin = route_msg.origin
        if payload.get("learn") and origin != dht.ref and dht.terminates(route_msg.key):
            # Only the *owner* answers: an heir that absorbed the key
            # while the owner is suspected must not get cached, or
            # batches would go direct to a non-owner for the whole TTL.
            dht.send_direct(origin.address, {
                "op": "xowner", "ns": payload["ns"],
                "rid": payload.get("rid"), "ref": dht.ref,
                "region": dht.region,
            })
        elif (
            route_msg.force_terminal
            and origin != dht.ref
            and payload.get("rid") is not None
            and not dht.owns(route_msg.key)
        ):
            # A cache-directed (or heir) delivery landed on a node that
            # no longer owns the key (a joiner took the range).
            dht.send_direct(origin.address, {
                "op": "xowner_stale", "ns": payload["ns"],
                "rid": payload["rid"],
            })

    def on_reply(self, payload):
        """Origin side: an owner identified itself, or went stale."""
        key = (payload["ns"], payload.get("rid"))
        if payload["op"] == "xowner_stale":
            self.pop(key, None)
        elif key[1] is not None:
            region, here = payload.get("region"), self.dht.region
            cross = None not in (region, here) and region != here
            ttl = CROSS_REGION_CACHE_TTL if cross else ROUTE_CACHE_TTL
            self[key] = (payload["ref"], self.dht.clock.now + ttl, region)

    def forget(self, ns_prefix):
        """A record is gone for good: drop the owners learned under
        its namespace prefix."""
        for key in [k for k in self if k[0].startswith(ns_prefix)]:
            del self[key]

    def sweep(self):
        """Reclaim expired entries whose key never came back."""
        now = self.dht.clock.now
        for key in [k for k, e in self.items() if e[1] <= now]:
            del self[key]
