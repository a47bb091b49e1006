"""Hierarchical in-network aggregation via routing upcalls.

The trick (PIER inherits it from TAG-style sensor aggregation): every
partial aggregate for a group is routed toward the group's owner key,
and DHT routes to one key *converge* -- so an upcall at each hop can
hold arriving partials briefly, merge same-group states, and forward
one combined message instead of many. Bandwidth at the owner drops
from O(N) to O(fan-in of the tree), which is what makes a network-wide
SUM over 300 (or 10,000) nodes cheap.

One :class:`TreeCombiner` per node per tree-mode exchange edge. For
disposable per-epoch executions the engine registers it with the epoch
and tears it down with the epoch. Standing continuous queries register
it once under an epoch-free upcall name; payloads then carry an epoch
tag, and the combiner merges only same-epoch partials (held states are
keyed by tag) so a straggler from a finished epoch can never pollute
the next epoch's aggregate mid-route.

Paned edges (distributed sliding windows) add a *pane* tag beside the
epoch: held states are keyed by (epoch, pane, group) and forwarded
messages keep the pane, so the in-network tree merges pane partials --
one combined increment per pane per group reaches the owner -- without
ever conflating two panes' states. Paned routing also drops the
per-epoch rendezvous salt (see ``Exchange._route``): a window's panes
must accumulate at a stable owner across the epochs that share them,
so the combiner forwards under the plain routing namespace too.

Standing edges route their forwards by the one owner-route rule of
:mod:`repro.core.owners`: an unpaned forward re-salts while this
node's learned owner is suspect or when any absorbed partial was
already salted (sticky, promotion-only), and an unsalted forward whose
owner is learned goes direct in one hop instead of re-walking the
stable route every epoch. Only *forwards* shortcut -- the senders below
still walk, so mid-route combiners upstream stay in the path.
"""

from repro.core.aggregates import merge_into
from repro.core.exchange import payload_rows
from repro.dht.chord import storage_key


class TreeCombiner:
    """Hold-and-merge relay for partial aggregate states."""

    def __init__(self, dht, ns, route_ns, upcall, agg_specs, hold_delay,
                 owners, paned=False, regional=False):
        self.dht = dht
        self.ns = ns  # delivery namespace (dispatch tag on arrival)
        self.route_ns = route_ns  # routing namespace (must match the exchange's)
        self.upcall = upcall
        self.agg_specs = agg_specs
        self.hold_delay = hold_delay
        self.paned = paned  # pane-tagged edge: stable (unsalted) routing
        # The engine's OwnerCache, read for epoch-tagged (standing)
        # partials only.
        self.owners = owners
        # Two-level regional trees: this node only ever absorbs as its
        # region's rendezvous (senders route *through* it), so its
        # forwards are already one-partial-per-region -- they go to
        # the global owner WITHOUT the per-hop intercept. Re-absorbing
        # a region's combined partial mid-backbone would chain another
        # hold delay onto every epoch's critical path for no byte win
        # that matters (there are only #regions forwards in flight).
        self.regional = regional
        # (epoch, pane, group_values) -> [merged states (list), salted]
        self._held = {}
        self._timer = None
        self.merged_in = 0  # messages absorbed (for the ablation bench)
        self.forwarded = 0
        self.hop_shortcuts = 0  # forwards that went direct to a cached owner

    def handler(self, node, route_msg, at_owner):
        """Routing intercept: absorb and merge unless we own the key.

        Batch-aware: a ``deliver_batch`` message (the batched exchange
        path, or a re-emitting upstream partial) is merged entry by
        entry, so one absorbed message can fold many partials at once.

        Absorbing *consumes* the message's dedup id: a replay of the
        same message (re-forwarded after a lost hop ack) that lands on
        this node again is dropped instead of double-merged. A message
        passed through to the owner keeps its id unconsumed -- the
        delivery layer there does the dedup.
        """
        if at_owner:
            return True  # land normally; the final group-by merges it
        if not node.accept_delivery_once(route_msg.payload.get("mid")):
            return False  # replay already folded into a held partial
        epoch = route_msg.payload.get("epoch")
        pane = route_msg.payload.get("pane")
        salted = bool(route_msg.payload.get("salted"))
        for gvals, states in payload_rows(route_msg.payload):
            self._absorb(epoch, pane, gvals, states, salted)
        self.merged_in += 1
        if self._timer is None:
            self._timer = self.dht.set_timer(self.hold_delay, self._forward)
        return False

    def _absorb(self, epoch, pane, gvals, states, salted=False):
        held = self._held.get((epoch, pane, gvals))
        if held is None:
            self._held[(epoch, pane, gvals)] = [list(states), salted]
        else:
            merge_into(held[0], self.agg_specs, states)
            held[1] = held[1] or salted

    def _forward(self):
        self._timer = None
        held, self._held = self._held, {}
        for (epoch, pane, gvals), (states, salted) in held.items():
            self.forwarded += 1
            # A combined message is new traffic: it gets its own dedup
            # id (the absorbed originals' ids were consumed on absorb).
            payload = {"op": "deliver", "ns": self.ns, "rid": gvals,
                       "data": (gvals, tuple(states)),
                       "mid": self.dht.fresh_mid()}
            owner = None
            if epoch is None:
                key = storage_key(self.route_ns, gvals)
            else:
                payload["epoch"] = epoch
                if self.paned:
                    payload["pane"] = pane
                elif salted:
                    payload["salted"] = True
                key, owner = self.owners.route(
                    self.ns, self.route_ns, gvals, payload,
                    salt=not self.paned)
            if owner is not None:
                self.hop_shortcuts += 1
                self.dht.route_via(owner, key, payload)
            else:
                self.dht.route(
                    key, payload,
                    upcall=None if self.regional else self.upcall,
                )

    def close(self):
        """Flush anything still held (epoch teardown)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._forward()
