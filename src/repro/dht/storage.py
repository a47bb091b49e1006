"""Soft-state storage: every item carries a TTL and expires unless renewed.

This is PIER's whole consistency story -- there is no distributed
deletion or repair protocol. Publishers re-``put`` what they want kept
alive; anything orphaned by churn or query teardown simply ages out.

Keys are ``(namespace, resource_id, instance_id)``:

* ``namespace``   -- the relation (or query-temp) name,
* ``resource_id`` -- the value the relation is partitioned on (the DHT
  hashes ``namespace || resource_id`` to place the item),
* ``instance_id`` -- distinguishes multiple tuples sharing a resource id.

Two access structures keep the hot paths cheap at scale:

* a secondary ``(namespace, resource_id)`` index, so ``get`` -- the
  fetch-matches probe path -- touches only that key's instances instead
  of linearly scanning the whole namespace bucket;
* an expiry min-heap, so ``sweep`` pops only what is actually due
  instead of scanning every stored item each period. Heap entries are
  lazy: ``renew`` pushes a later entry rather than re-keying the heap,
  and stale entries are discarded when they surface.
"""

import heapq

from repro.util.ids import sha1_id


def storage_key(namespace, resource_id):
    """Where an item lives on the ring: hash of namespace + resource id."""
    return sha1_id((namespace, resource_id))


class StoredItem:
    __slots__ = ("namespace", "resource_id", "instance_id", "value", "expires_at")

    def __init__(self, namespace, resource_id, instance_id, value, expires_at):
        self.namespace = namespace
        self.resource_id = resource_id
        self.instance_id = instance_id
        self.value = value
        self.expires_at = expires_at

    def key(self):
        return (self.namespace, self.resource_id, self.instance_id)

    def __repr__(self):
        return "StoredItem({}/{}/{} exp={:.1f})".format(
            self.namespace, self.resource_id, self.instance_id, self.expires_at
        )


class SoftStateStore:
    """Per-node item store with lazy + periodic expiry.

    Expiry is enforced two ways: reads filter out stale items on the
    spot (so correctness never depends on sweep timing), and a periodic
    sweep reclaims memory.
    """

    def __init__(self, clock):
        self.clock = clock
        self._items = {}
        self._by_namespace = {}
        self._by_resource = {}  # (namespace, resource_id) -> {key: item}
        self._expiry_heap = []  # (expires_at, seq, key); entries are lazy
        self._heap_seq = 0  # tie-break so keys never get compared
        self._heap_deadline = {}  # key -> latest deadline queued in the heap
        self._new_data_callbacks = {}  # ns -> {token: (callback, expires_at|None)}
        self._next_callback_expiry = None  # earliest TTL'd subscription deadline
        self._next_sub_token = 0

    def __len__(self):
        return len(self._items)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _index(self, item, key):
        self._items[key] = item
        self._by_namespace.setdefault(item.namespace, {})[key] = item
        self._by_resource.setdefault(
            (item.namespace, item.resource_id), {}
        )[key] = item
        self._push_expiry(item, key)

    def _push_expiry(self, item, key):
        # One *current* entry per key: only the entry matching the
        # recorded deadline is honoured by sweep, so renewing a key
        # every period cannot grow the heap without bound, and a write
        # that shortens the deadline takes effect immediately (the
        # superseded later entry is dropped when it surfaces).
        deadline = self._heap_deadline.get(key)
        if deadline == item.expires_at:
            return
        self._heap_seq += 1
        heapq.heappush(self._expiry_heap, (item.expires_at, self._heap_seq, key))
        self._heap_deadline[key] = item.expires_at

    def _discard(self, key, item):
        """Drop one item from every index (its heap entries expire lazily)."""
        self._items.pop(key, None)
        bucket = self._by_namespace.get(item.namespace)
        if bucket is not None:
            bucket.pop(key, None)
            if not bucket:
                del self._by_namespace[item.namespace]
        rkey = (item.namespace, item.resource_id)
        rbucket = self._by_resource.get(rkey)
        if rbucket is not None:
            rbucket.pop(key, None)
            if not rbucket:
                del self._by_resource[rkey]
        self._heap_deadline.pop(key, None)

    def _adopt(self, item):
        """Index ``item``, firing newData if its key is genuinely new.

        A key whose previous item has already expired counts as new: an
        unswept corpse must not shadow the live replacement, or a
        subscriber would never hear about the re-published row.

        A re-put of a *live* key is folded into the existing
        :class:`StoredItem` in place rather than replacing the object.
        Handoff and standing-scan subscribers hold these items by
        reference (the sweep already relies on that for renewals), so
        the refresh must stay visible through the reference they keep.
        """
        key = item.key()
        existing = self._items.get(key)
        if existing is not None and existing.expires_at > self.clock.now:
            existing.value = item.value
            existing.expires_at = item.expires_at
            self._push_expiry(existing, key)
            return existing
        self._index(item, key)
        self._fire_new_data(item.namespace, item)
        return item

    def put(self, namespace, resource_id, instance_id, value, ttl):
        """Insert or refresh an item; firing any newData subscribers."""
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        item = StoredItem(
            namespace, resource_id, instance_id, value, self.clock.now + ttl
        )
        return self._adopt(item)

    def put_item(self, item):
        """Adopt an already-built item (bulk transfer path) verbatim.

        Fires newData subscribers for genuinely new keys: a row migrated
        here by churn handoff is *new to this node*, and a continuous
        scan subscribed at the new owner must wake for it just as it
        would for a fresh publish. An item whose TTL lapsed in transit
        is dead on arrival and not adopted at all.
        """
        if item.expires_at <= self.clock.now:
            return
        self._adopt(item)

    def renew(self, namespace, resource_id, instance_id, ttl):
        """Extend an item's life; returns False if it no longer exists.

        An already-expired item is reclaimed on the spot rather than
        left for the sweeper: the renew just proved someone is looking
        at this key, so don't let the corpse shadow it.
        """
        key = (namespace, resource_id, instance_id)
        item = self._items.get(key)
        if item is None:
            return False
        if item.expires_at <= self.clock.now:
            self._discard(key, item)
            return False
        item.expires_at = self.clock.now + ttl
        self._push_expiry(item, key)
        return True

    def remove_namespace(self, namespace):
        """Drop a whole namespace (query teardown fast-path).

        Subscriptions go with it: a torn-down query's namespace will
        never see data this node should announce, and keeping the
        callbacks would pin dead executions in memory.
        """
        doomed = list(self._by_namespace.get(namespace, {}).items())
        for key, item in doomed:
            self._discard(key, item)
        self._new_data_callbacks.pop(namespace, None)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _live(self, item):
        return item.expires_at > self.clock.now

    def get(self, namespace, resource_id):
        """All live items for (namespace, resource_id), any instance."""
        bucket = self._by_resource.get((namespace, resource_id))
        if not bucket:
            return []
        return [item for item in bucket.values() if self._live(item)]

    def lscan(self, namespace):
        """All live items in a namespace stored at this node."""
        bucket = self._by_namespace.get(namespace, {})
        return [item for item in bucket.values() if self._live(item)]

    def items_in_range(self, predicate):
        """Live items whose hashed key satisfies ``predicate`` (handoff)."""
        return [item for item in self._items.values() if self._live(item) and predicate(item)]

    def lscan_all(self):
        """Every live item at this node (graceful-leave handoff)."""
        return [item for item in self._items.values() if self._live(item)]

    def namespaces(self):
        return list(self._by_namespace)

    # ------------------------------------------------------------------
    # Subscriptions and maintenance
    # ------------------------------------------------------------------
    def on_new_data(self, namespace, callback, ttl=None):
        """Register a callback fired when a *new* item lands in ``namespace``.

        With a ``ttl`` the subscription is itself soft state -- the
        sweeper drops it once expired, matching how everything else in
        the store ages out. Without one it lives until the namespace is
        removed (or ``remove_new_data``). Returns a subscription token;
        a long-lived subscriber (a standing continuous scan) passes it
        to :meth:`renew_new_data` each epoch instead of re-subscribing,
        which would duplicate the callback.
        """
        expires_at = None if ttl is None else self.clock.now + ttl
        self._next_sub_token += 1
        token = self._next_sub_token
        self._new_data_callbacks.setdefault(namespace, {})[token] = (
            callback, expires_at
        )
        self._note_sub_expiry(expires_at)
        return token

    def renew_new_data(self, namespace, token, ttl):
        """Extend a TTL'd subscription; returns False if it aged out.

        Like item renewal, an expired subscription is reclaimed on the
        spot rather than resurrected -- the subscriber must re-subscribe
        (and re-seed itself) because arrivals during the gap were lost.
        """
        bucket = self._new_data_callbacks.get(namespace)
        entry = bucket.get(token) if bucket else None
        if entry is None:
            return False
        callback, expires_at = entry
        if expires_at is not None and expires_at <= self.clock.now:
            del bucket[token]
            if not bucket:
                del self._new_data_callbacks[namespace]
            return False
        new_expiry = None if ttl is None else self.clock.now + ttl
        bucket[token] = (callback, new_expiry)
        self._note_sub_expiry(new_expiry)
        return True

    def _note_sub_expiry(self, expires_at):
        if expires_at is not None and (
            self._next_callback_expiry is None
            or expires_at < self._next_callback_expiry
        ):
            self._next_callback_expiry = expires_at

    def remove_new_data(self, namespace, token=None):
        if token is None:
            self._new_data_callbacks.pop(namespace, None)
            return
        bucket = self._new_data_callbacks.get(namespace)
        if bucket is not None:
            bucket.pop(token, None)
            if not bucket:
                del self._new_data_callbacks[namespace]

    def _fire_new_data(self, namespace, item):
        now = self.clock.now
        bucket = self._new_data_callbacks.get(namespace)
        if not bucket:
            return
        for callback, expires_at in list(bucket.values()):
            if expires_at is None or expires_at > now:
                callback(item)

    def sweep(self):
        """Reclaim expired items; returns how many were removed.

        Pops the expiry heap only down to ``now``: cost is proportional
        to what actually expired (plus lazy entries superseded by a
        renew), never to the store's total size. Expired TTL'd
        subscriptions are pruned on the same pass.
        """
        now = self.clock.now
        removed = 0
        heap = self._expiry_heap
        while heap and heap[0][0] <= now:
            expires_at, _seq, key = heapq.heappop(heap)
            if self._heap_deadline.get(key) != expires_at:
                continue  # superseded or discarded; a stale entry
            item = self._items.get(key)
            if item is None:
                self._heap_deadline.pop(key, None)
                continue
            if item.expires_at > now:
                # Still live past its latest queued entry: handoff
                # shares StoredItem objects by reference, so a renew at
                # another owner can move expires_at without touching
                # *this* heap -- re-arm, or this store would never look
                # at the key again.
                self._push_expiry(item, key)
                continue
            self._discard(key, item)
            removed += 1
        self._sweep_callbacks(now)
        return removed

    def _sweep_callbacks(self, now):
        # The common case is no TTL'd subscriptions at all; the earliest
        # deadline lets that case (and any not-yet-due one) skip the
        # scan over every subscribed namespace.
        if self._next_callback_expiry is None or self._next_callback_expiry > now:
            return
        next_expiry = None
        for namespace in list(self._new_data_callbacks):
            entries = {
                token: (cb, exp)
                for token, (cb, exp) in self._new_data_callbacks[namespace].items()
                if exp is None or exp > now
            }
            if entries:
                self._new_data_callbacks[namespace] = entries
                for _cb, exp in entries.values():
                    if exp is not None and (next_expiry is None or exp < next_expiry):
                        next_expiry = exp
            else:
                del self._new_data_callbacks[namespace]
        self._next_callback_expiry = next_expiry

    def clear(self):
        """Drop everything (node crash: soft state does not survive)."""
        self._items.clear()
        self._by_namespace.clear()
        self._by_resource.clear()
        self._expiry_heap = []
        self._heap_deadline.clear()
        self._new_data_callbacks.clear()
        self._next_callback_expiry = None
