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

A :class:`ChordNode` is a :class:`~repro.sim.node.SimNode`: it fails by
crashing (losing all soft state) and recovers by re-joining through a
bootstrap address.
"""

from repro.dht import messages as msg
from repro.dht.rpc import RpcNode, ignore_answer
from repro.dht.storage import SoftStateStore
from repro.sim.node import SimNode
from repro.sim.processes import PeriodicProcess
from repro.util.ids import ID_BITS, distance_cw, in_interval, node_id_for, sha1_id

# Three maintenance clocks over *one* conversation per ring edge, not
# three independent probes (periods are Bamboo's defaults from the
# churn paper the demo cites: periodic, not reactive, recovery).
#
# Every STABILIZE_PERIOD a node probes its successor (``get_neighbors``,
# one request and one reply). The probe names the prober, so it is also
# the notify and, for the receiver, its predecessor's keep-alive. A
# silent successor is replaced ``rpc_timeout`` after the probe.
STABILIZE_PERIOD = 5.0
# How long a predecessor may stay silent before it is pinged; a settled
# ring never pings, because the predecessor's probe arrives every
# STABILIZE_PERIOD. Keep it above that, or every check finds a "silent"
# predecessor and pings as the old protocol did. Worst case from a
# predecessor's last probe to its eviction:
# ``2 * CHECK_PREDECESSOR_PERIOD + rpc_timeout``.
CHECK_PREDECESSOR_PERIOD = 7.0
# FINGERS_PER_ROUND slots are refreshed per FIX_FINGERS_PERIOD: slots
# the successor covers cost nothing, a populated slot further out costs
# one ``owns`` RPC to the finger (its only liveness probe), and the
# routed lookup runs only when that says no or times out, or the slot is
# empty or suspected.
FIX_FINGERS_PERIOD = 10.0
FINGERS_PER_ROUND = 8
SUCCESSOR_LIST_LENGTH = 4
LOOKUP_RETRIES = 2
STORAGE_SWEEP_PERIOD = 5.0
DEFAULT_TTL = 120.0  # put/renew without a ttl
SUSPECT_TTL = 30.0
# How long a consumed delivery id or a delivered broadcast token is
# remembered to drop replays (hop-by-hop acks make routed forwarding
# at-least-once; a delivered message whose ack was lost is re-forwarded).
# Must comfortably outlive the longest retry chain: ``lookup_timeout`` x
# retries plus routing slack.
DELIVERY_DEDUP_TTL = 30.0


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


def storage_key(namespace, resource_id):
    """Where an item lives on the ring: hash of namespace + resource id."""
    return sha1_id((namespace, resource_id))


class ChordNode(SimNode, RpcNode):
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
    ``broadcast``    disseminate a payload to every reachable node
    ``send_direct``  point-to-point message (result return to query site)
    ===============  ===================================================

    Exchange traffic rides ``route`` with ``deliver`` (one row) or
    ``deliver_batch`` (many co-keyed rows in one message) payloads; the
    registered delivery handler receives either shape. The engine's
    other calls -- ``route_via`` / ``route_through``, timers, handler
    registration -- are the hooks its owner caches, regional trees and
    plan adoption need.
    """

    def __init__(self, network, address, config, rng):
        super().__init__(network, address)
        self._init_rpc(config.rpc_timeout)
        self.config = config
        self.rng = rng
        self.id = node_id_for(address)
        self.ref = NodeRef(self.id, address)

        self.successors = [self.ref]  # successor list; [0] is the successor
        self.predecessor = None
        self.fingers = [None] * ID_BITS
        self._next_finger = 0
        # When the current predecessor last proved itself alive (its
        # stabilise probe, a notify, or an answered ping).
        self._predecessor_heard = 0.0

        self.store = SoftStateStore(self.clock)

        self._suspects = {}  # address -> suspicion expiry (sim time)
        self._next_mid = 0
        self._seen_mids = {}  # delivery id -> forget-at (replay dedup)
        self._intercepts = {}
        self._delivery_handlers = {}
        self._default_delivery = None
        self._digest_provider = None
        self._digest_handler = None
        self._broadcast_handlers = []
        self._direct_handlers = []
        self._seen_broadcasts = {}  # token -> forget-at, like _seen_mids
        self._bootstrap_address = None
        # Acked hops filed this instant, not yet on the wire:
        # (next hop's address, guard timeout) -> (next hop, [the rest
        # of _send_hop's arguments, one tuple per message]).
        self._outbox = {}
        self._outbox_timer = None

        self._stabilizer = PeriodicProcess(
            self.clock, STABILIZE_PERIOD, self._stabilize, jitter_rng=rng
        )
        self._finger_fixer = PeriodicProcess(
            self.clock, FIX_FINGERS_PERIOD, self._fix_fingers, jitter_rng=rng
        )
        self._pred_checker = PeriodicProcess(
            self.clock, CHECK_PREDECESSOR_PERIOD, self._check_predecessor,
            jitter_rng=rng,
        )
        self._sweeper = PeriodicProcess(
            self.clock, STORAGE_SWEEP_PERIOD, self._sweep_soft_state,
            jitter_rng=rng,
        )
        self._install_rpc_handlers()

    def fresh_mid(self):
        """A node-unique delivery id for exactly-once exchange delivery.

        Stamped into ``deliver``/``deliver_batch`` payloads at the
        origin (exchanges, tree combiners); the id survives every
        re-forward of the same message, so a terminal that has already
        consumed it can drop the replay.
        """
        self._next_mid += 1
        return (self.address, self._next_mid)

    def accept_delivery_once(self, mid):
        """True exactly once per delivery id within the dedup TTL.

        Hop-by-hop acked forwarding is at-least-once: a delivered hop
        whose ack is lost re-forwards the same message, and a cached-
        owner send that times out falls back to key routing. Consuming
        the id at the point of delivery (or in-network absorption)
        makes exchange delivery exactly-once *per node* -- the only
        duplicates left are cross-node ones during ownership ambiguity,
        which soft state already tolerates.
        """
        if mid is None:
            return True
        if mid in self._seen_mids:
            return False
        self._seen_mids[mid] = self.clock.now + DELIVERY_DEDUP_TTL
        return True

    def _sweep_soft_state(self):
        self.store.sweep()
        now = self.clock.now
        for seen in (self._seen_mids, self._seen_broadcasts):
            for key in [k for k, t in seen.items() if t <= now]:
                del seen[key]

    # ------------------------------------------------------------------
    # Ring membership
    # ------------------------------------------------------------------
    @property
    def successor(self):
        return self.successors[0]

    def create_ring(self):
        """Become the first node of a new ring."""
        self.successors = [self.ref]
        self.predecessor = self.ref
        self._start_maintenance()

    def join(self, bootstrap_address):
        """Join the ring known to ``bootstrap_address`` via the protocol."""
        self._bootstrap_address = bootstrap_address
        self.predecessor = None

        def joined(owner, hops):
            if owner is None:
                # Bootstrap unreachable; retry after a backoff.
                self.set_timer(self.config.rpc_timeout, self.join, bootstrap_address)
                return
            self.successors = [owner]
            self._start_maintenance()
            self._stabilize()

        self._lookup_via(bootstrap_address, self.id, joined)

    def leave(self):
        """Graceful departure: hand keys to the successor, then stop."""
        if self.successor != self.ref:
            items = self.store.lscan_all()
            if items or self._seen_mids:
                # Keys AND consumed delivery ids move together: the
                # successor inherits the range, so it must also inherit
                # the dedup memory, or a retransmission raced against
                # this departure double-delivers at the heir.
                self.send(
                    self.successor.address,
                    msg.StoreItems(items, mids=dict(self._seen_mids)),
                )
            if self.predecessor is not None and self.predecessor != self.ref:
                self.send(
                    self.predecessor.address,
                    msg.RpcRequest(-1, self.address, {
                        "kind": "successor_leaving",
                        "successors": list(self.successors[1:]) or list(self.successors),
                    }),
                )
        if self._outbox:
            # Forwards filed this instant still go out: leaving is
            # graceful, the messages were accepted under an ack.
            self._ship_outbox()
        self.crash()

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
        # Delivery handlers and intercepts point into executions that
        # just died with the engine; a recovered node must not feed
        # rows to those zombies, it must fall back to the engine's
        # default (buffering) delivery until a plan is re-adopted.
        self._delivery_handlers.clear()
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

    def _start_maintenance(self):
        self._stabilizer.start()
        self._finger_fixer.start()
        self._pred_checker.start()
        self._sweeper.start()

    def _stop_maintenance(self):
        self._stabilizer.stop()
        self._finger_fixer.stop()
        self._pred_checker.stop()
        self._sweeper.stop()

    # ------------------------------------------------------------------
    # Failure suspicion (timeout-driven, no oracle)
    # ------------------------------------------------------------------
    def _suspect(self, address):
        self._suspects[address] = self.clock.now + SUSPECT_TTL

    def _is_suspect(self, address):
        expiry = self._suspects.get(address)
        if expiry is None:
            return False
        if expiry <= self.clock.now:
            del self._suspects[address]
            return False
        return True

    def _absolve(self, address):
        self._suspects.pop(address, None)

    # ------------------------------------------------------------------
    # Region awareness (proximity neighbor selection)
    # ------------------------------------------------------------------
    def _region_of(self, address):
        """Region label of a peer, via the topology's region directory.

        The simulator's latency model doubles as the proximity service
        a deployed overlay would consult (Vivaldi coordinates, a region
        config); an unlabelled topology answers None for everyone and
        every proximity preference below degrades to the flat ring.
        """
        region_of = getattr(self.network.latency, "region_of", None)
        return region_of(address) if region_of is not None else None

    def _proximity_on(self):
        return self.config.proximity_routing and self.region is not None

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
        members = getattr(self.network.latency, "members", None)
        if members is None:
            return None
        best = None
        best_distance = None
        for address in members(region):
            if address != self.address and self._is_suspect(address):
                continue
            node_id = node_id_for(address)
            d = distance_cw(key, node_id)
            if best_distance is None or d < best_distance:
                best = NodeRef(node_id, address)
                best_distance = d
        return best

    # ------------------------------------------------------------------
    # Next-hop selection
    # ------------------------------------------------------------------
    def owns(self, key):
        """True if this node is responsible for ``key``.

        A node owns the keys in ``(predecessor, self]``. With no known
        predecessor we claim ownership only when we are our own
        successor (single-node ring); otherwise routing decides.
        """
        if self.predecessor is None:
            return self.successor == self.ref
        return in_interval(key, self.predecessor.id, self.id, inclusive_hi=True)

    def _candidates(self):
        """Each distinct known peer once: fingers, then successors.

        The 160-slot finger table holds about log2(N) distinct nodes in
        long runs of one ``NodeRef``, most of them repeated in the
        successor list. This yields the first occurrence of every id
        but our own, in table order, skipping a repeated slot on object
        identity alone, so callers pay ``__eq__``, suspicion and
        interval checks per peer rather than per slot.
        """
        seen = {self.id}
        last = None
        for table in (self.fingers, self.successors):
            for ref in table:
                if ref is last:
                    continue
                last = ref
                if ref is None or ref.id in seen:
                    continue
                seen.add(ref.id)
                yield ref

    def closest_preceding(self, target, exclude=()):
        """Best next hop toward ``target``: closest known predecessor of it.

        Skips suspects and anything in ``exclude`` (hops already tried
        for this message). Falls back to the first usable successor.

        Under ``proximity_routing`` a same-region candidate within 2x
        of the best candidate's remaining distance wins the hop: every
        in-interval candidate still makes strict progress (its distance
        to the target is less than ours), so termination is untouched
        and the stretch is bounded, but hops stay on rack-scale links
        until the key's own region is reached.
        """
        best = None
        best_distance = None
        local = None
        local_distance = None
        proximity = self._proximity_on()
        for candidate in self._candidates():
            if candidate.address in exclude or self._is_suspect(candidate.address):
                continue
            if in_interval(candidate.id, self.id, target):
                d = distance_cw(candidate.id, target)
                if best_distance is None or d < best_distance:
                    best = candidate
                    best_distance = d
                if proximity and self._region_of(candidate.address) == self.region:
                    if local_distance is None or d < local_distance:
                        local = candidate
                        local_distance = d
        if best is not None:
            if (local is not None and local != best
                    and local_distance <= 2 * best_distance):
                return local
            return best
        # Successor-list fallback -- but never overshoot the target:
        # forwarding *past* the key makes messages lap the ring while
        # an ownership gap heals. If no live entry precedes the target,
        # this node is the closest live predecessor and must act.
        for fallback in self.successors:
            if fallback == self.ref:
                continue
            if fallback.address in exclude or self._is_suspect(fallback.address):
                continue
            if in_interval(fallback.id, self.id, target):
                return fallback
        return None

    # ------------------------------------------------------------------
    # Hop-by-hop acked forwarding (shared by lookups and routes)
    # ------------------------------------------------------------------
    @staticmethod
    def _dup_sensitive(message):
        """Does duplicating this message at two nodes corrupt state?

        Exchange deliveries are: a copy consumed at the owner *and* at
        an heir double-counts rows, and only the dedup id lets a
        receiver drop a replay. Lookups are answers, puts/renews are
        idempotent, gets are reads -- duplicating those is harmless, so
        they keep the fastest possible failure recovery.
        """
        payload = getattr(message, "payload", None)
        return isinstance(payload, dict) and payload.get("mid") is not None

    def _send_hop(self, nxt, message, target, tried, on_suspect=None, retried=False):
        """Forward ``message`` to ``nxt``, expecting a receipt ack.

        Sends nothing itself: the hop is filed in the outbox under
        ``(nxt, guard timeout)``, and one zero-delay timer -- which the
        simulator fires after the whole same-instant cascade -- ships
        every bucket as one wire message (:meth:`_ship_outbox`).
        :meth:`_hop_silent` is what happens when no ack comes back.
        """
        wait = (self.config.hop_retransmit_timeout if retried
                else self.config.rpc_timeout)
        message.hops += 1
        hops = self._outbox.get((nxt.address, wait))
        if hops is None:
            hops = self._outbox[(nxt.address, wait)] = (nxt, [])
        hops[1].append((message, target, tried, on_suspect, retried))
        if self._outbox_timer is None:
            self._outbox_timer = self.set_timer(0.0, self._ship_outbox)

    def _ship_outbox(self):
        """The one place an acked hop leaves this node.

        A bucket of one goes as the message itself; a bucket of *n* as
        one :class:`~repro.dht.messages.HopBundle` of the *n* messages.
        Either way it is one ``send`` under one ack and one guard.
        """
        self._outbox_timer = None
        outbox, self._outbox = self._outbox, {}
        for (address, wait), (nxt, hops) in outbox.items():
            if len(hops) == 1:
                wire = hops[0][0]
            else:
                wire = msg.HopBundle([hop[0] for hop in hops])
                for part in wire.parts:
                    part.hop_ack = None  # the bundle's ack covers it
            wire.hop_ack = (self.address, self.expect(
                wait, ignore_answer,
                lambda nxt=nxt, hops=hops: self._hop_silent(nxt, hops)))
            self.send(address, wire)

    def _hop_silent(self, nxt, hops):
        """No ack for what one wire message carried: each message in it
        recovers by its own policy, as if it had travelled alone.

        A dup-sensitive message (see :meth:`_dup_sensitive`) is first
        *retransmitted* once to the same hop: a lost ack is as likely
        as a lost message, and a retransmit carries the same delivery
        id, so the receiver's dedup absorbs the duplicate -- where
        rerouting straight away would deliver a second copy at a
        *different* node (an heir), which no node-local dedup can
        catch. A second silence (or the first, for idempotent traffic
        and hops already under suspicion) makes the hop a suspect and
        re-forwards the message around it (Bamboo's recursive-routing
        recovery), after ``on_suspect()`` if the caller has something
        to undo first. "Already under suspicion" is asked once, before
        any part reacts: an idempotent part that suspects the hop must
        not cost the deliveries beside it their retransmit.
        """
        suspected = self._is_suspect(nxt.address)
        for message, target, tried, on_suspect, retried in hops:
            if not (retried or suspected) and self._dup_sensitive(message):
                self._send_hop(nxt, message, target, tried, on_suspect, True)
                continue
            self._suspect(nxt.address)
            if on_suspect is not None:
                on_suspect()
            self._advance(message, target, tried | {nxt.address})

    def _advance(self, message, target, tried):
        """Terminal-check then forward ``message`` toward ``target``."""
        if message.kind == "lookup" and message.joining:
            # A joiner asks for its successor: the first node after its
            # id other than itself. Peers may still hold it from before
            # a crash, so treat it as gone -- its successor owns its id,
            # and no hop goes to it (it would answer for the whole ring).
            if self.predecessor == message.origin:
                self._terminal(message)
                return
            tried = tried | {message.origin.address}
        if getattr(message, "force_terminal", False):
            self._terminal(message)
            return
        if self.owns(target) or self.successor == self.ref:
            self._terminal(message)
            return
        if in_interval(target, self.id, self.successor.id, inclusive_hi=True):
            if not (self._is_suspect(self.successor.address)
                    or self.successor.address in tried):
                self._send_hop(self.successor, message, target, tried)
                return
            # The key's owner appears dead. The next live successor-list
            # entry inherits its range once stabilization completes, so
            # deliver there now (flagged terminal -- the heir does not
            # yet believe it owns the range). Delivery at any heir is
            # approximate by contract, so proximity routing may prefer
            # a region-local heir over the strict list order and keep
            # the reroute off the backbone.
            heirs = [
                heir for heir in self.successors[1:]
                if heir != self.ref and heir.address not in tried
                and not self._is_suspect(heir.address)
            ]
            if self._proximity_on():
                heirs.sort(
                    key=lambda h: self._region_of(h.address) != self.region
                )
            if heirs:
                message.force_terminal = True
                self._send_hop(heirs[0], message, target, tried)
            else:
                self._terminal(message)
            return
        nxt = self.closest_preceding(target, exclude=tried)
        if nxt is None:
            # Every live candidate was tried: we are the closest live
            # node to the key, so act as its owner (Bamboo's recovery
            # behaviour). Stabilization will install the true owner
            # shortly; in the meantime an approximate delivery beats a
            # dropped one -- soft state tolerates the former.
            self._terminal(message)
            return
        self._send_hop(nxt, message, target, tried)

    def _terminal(self, message):
        if message.kind == "lookup":
            # The owner of the target answers with itself.
            self.send(
                message.origin.address,
                msg.LookupDone(message.req_id, self.ref, message.hops),
            )
        else:
            self._route_arrived(message)

    def _ack_hop(self, message):
        if message.hop_ack is not None:
            ack_to, req = message.hop_ack
            message.hop_ack = None
            self.send_direct(ack_to, {"op": "hop_ack", "req": req})

    def _handle_hop_bundle(self, bundle):
        """One ack for the wire message, then every part as if it had
        arrived alone: upcalls, terminal checks and delivery-id dedup
        all run per part, so a retransmitted bundle dedups part by
        part."""
        self._ack_hop(bundle)
        for part in bundle.parts:
            if part.kind == "lookup":
                self._handle_lookup(part)
            else:
                self._handle_route(part)

    # ------------------------------------------------------------------
    # Lookup (find the owner of a key)
    # ------------------------------------------------------------------
    def lookup(self, key, on_done):
        """Find the owner of ``key``; ``on_done(owner_ref, hops)``.

        ``owner_ref`` is None if every retry timed out (network
        partition, or the ring collapsed under us).
        """
        self._lookup_attempt(key, on_done, LOOKUP_RETRIES)

    def _local_owner(self, key):
        """``(owner, hops)`` when this node can name ``key``'s owner
        without asking anyone -- itself or its successor -- else None."""
        if self.owns(key) or self.successor == self.ref:
            return self.ref, 0
        if in_interval(key, self.id, self.successor.id, inclusive_hi=True):
            return self.successor, 1
        return None

    def _lookup_attempt(self, key, on_done, retries_left):
        local = self._local_owner(key)
        if local is not None:
            on_done(*local)
            return

        def timed_out():
            if retries_left > 0:
                self._lookup_attempt(key, on_done, retries_left - 1)
            else:
                on_done(None, -1)

        req_id = self.expect(self.config.lookup_timeout, on_done, timed_out)
        self._advance(msg.Lookup(key, self.ref, req_id), key, frozenset())

    def _lookup_via(self, bootstrap_address, key, on_done):
        """Lookup routed through an arbitrary node (used while joining)."""
        req_id = self.expect(self.config.lookup_timeout, on_done,
                             lambda: on_done(None, -1))
        lookup = msg.Lookup(key, self.ref, req_id, hops=1)
        lookup.joining = True
        self.send(bootstrap_address, lookup)

    def _handle_lookup(self, message):
        self._ack_hop(message)
        self._advance(message, message.target, frozenset())

    # ------------------------------------------------------------------
    # Key-routed application messages (with upcalls)
    # ------------------------------------------------------------------
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

    def is_suspect(self, address):
        """Expose failure suspicion (owner caches skip suspected nodes)."""
        return self._is_suspect(address)

    def _handle_route(self, message):
        self._ack_hop(message)
        if message.upcall is not None:
            handler = self._intercepts.get(message.upcall)
            if handler is not None:
                at_owner = (
                    message.force_terminal
                    or self.owns(message.key)
                    or self.successor == self.ref
                )
                keep_going = handler(self, message, at_owner)
                if not keep_going:
                    return
        self._advance(message, message.key, frozenset())

    def _route_arrived(self, message):
        payload = message.payload
        op = payload.get("op")
        if op == "put":
            self.store.put(
                payload["ns"], payload["rid"], payload["iid"],
                payload["value"], payload["ttl"],
            )
        elif op == "renew":
            self.store.renew(
                payload["ns"], payload["rid"], payload["iid"], payload["ttl"]
            )
        elif op == "get":
            items = self.store.get(payload["ns"], payload["rid"])
            self.send(
                payload["reply_to"],
                msg.Direct({
                    "op": "get_reply",
                    "req": payload["req"],
                    "values": [(i.instance_id, i.value) for i in items],
                }),
            )
        elif op == "deliver" or op == "deliver_batch":
            self._deliver_arrived(payload, message)
        elif op == "deliver_mux":
            # A multiplexed bundle: several co-routed exchange payloads
            # (different queries sharing one prefix stage) shipped as a
            # single message to a common owner. The bundle has its own
            # delivery id; each part keeps its own too, so a replayed
            # bundle drops whole and a part re-sent solo later still
            # dedups.
            if not self.accept_delivery_once(payload.get("mid")):
                return
            for part in payload["parts"]:
                self._deliver_arrived(part, message)
        elif op == "bcast_repair":
            repaired = msg.Broadcast(
                payload["payload"], payload["limit"], message.origin,
                payload["depth"],
            )
            if self._deliver_broadcast(repaired):
                self._relay_broadcast(payload["payload"], payload["limit"],
                                      payload["depth"])
        else:  # pragma: no cover - future ops
            raise ValueError("unknown route op {!r}".format(op))

    def _deliver_arrived(self, payload, message):
        if not self.accept_delivery_once(payload.get("mid")):
            # Replay of a delivery this node already consumed (a
            # re-forward after a lost hop ack): drop it here, before
            # it can double-count in an execution or the engine's
            # unclaimed-row buffer.
            return
        if (
            payload.get("learn")
            and message.origin != self.ref
            and (self.owns(message.key) or self.successor == self.ref)
        ):
            # The origin asked who terminates this key (a standing
            # exchange warming its owner cache): answer once, then
            # it can skip the recursive walk until the hint expires.
            # Only the *owner* answers -- an heir that absorbed this
            # delivery while the owner is suspected must not get
            # cached, or batches would go direct to a non-owner for
            # the whole cache TTL. The origin simply keeps walking
            # until a true owner replies.
            self.send_direct(message.origin.address, {
                "op": "xowner", "ns": payload["ns"],
                "rid": payload.get("rid"), "ref": self.ref,
                # Region label rides along so the learner can expire
                # cross-region owners faster than local ones.
                "region": self.region,
            })
        elif (
            message.force_terminal
            and message.origin != self.ref
            and payload.get("rid") is not None
            and not self.owns(message.key)
        ):
            # A cache-directed (or heir) delivery landed on a node
            # that no longer owns the key -- ownership moved, e.g. a
            # joiner took over the range while the sender's owner
            # cache was warm. Deliver anyway (approximate delivery
            # beats a drop) but tell the origin to forget the entry
            # so its next batch re-walks the ring and re-learns.
            self.send_direct(message.origin.address, {
                "op": "xowner_stale", "ns": payload["ns"],
                "rid": payload["rid"],
            })
        handler = self._delivery_handlers.get(payload["ns"])
        if handler is not None:
            handler(payload, message)
        elif self._default_delivery is not None:
            # No subscriber yet (plan still disseminating): let the
            # engine buffer the row(s) instead of dropping them.
            self._default_delivery(payload, message)

    def register_intercept(self, name, handler):
        """``handler(node, route_msg, at_owner) -> bool`` (True = forward)."""
        self._intercepts[name] = handler

    def unregister_intercept(self, name):
        self._intercepts.pop(name, None)

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

    def register_delivery(self, namespace, handler):
        """Receive ``deliver`` payloads routed to keys this node owns."""
        self._delivery_handlers[namespace] = handler

    def unregister_delivery(self, namespace):
        self._delivery_handlers.pop(namespace, None)

    def set_default_delivery(self, handler):
        """Fallback for ``deliver`` payloads with no registered namespace."""
        self._default_delivery = handler

    # ------------------------------------------------------------------
    # Broadcast (query dissemination)
    # ------------------------------------------------------------------
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

    def _relay_broadcast(self, payload, limit, depth):
        targets = self._distinct_fingers()
        for i, finger in enumerate(targets):
            if not in_interval(finger.id, self.id, limit):
                continue
            child_limit = limit
            if i + 1 < len(targets) and in_interval(targets[i + 1].id, finger.id, limit):
                child_limit = targets[i + 1].id
            self._send_broadcast_child(payload, finger, child_limit, depth)

    def _send_broadcast_child(self, payload, child, child_limit, depth):
        def not_acked():
            self._suspect(child.address)
            # Child silent: hand its range to whoever now owns its id.
            self.route(child.id, {
                "op": "bcast_repair",
                "payload": payload,
                "limit": child_limit,
                "depth": depth + 1,
            })

        req = self.expect(2 * self.config.rpc_timeout, ignore_answer, not_acked)
        self.send(
            child.address,
            msg.Broadcast(payload, child_limit, self.ref, depth + 1,
                          ack_to=self.address, req=req),
        )

    def _distinct_fingers(self):
        """Finger + successor entries, deduped, ascending from self."""
        live = [ref for ref in self._candidates()
                if not self._is_suspect(ref.address)]
        return sorted(live, key=lambda r: distance_cw(self.id, r.id))

    def _handle_broadcast(self, message):
        if message.ack_to is not None:
            self.send_direct(message.ack_to, {"op": "bcast_ack", "req": message.req})
        if self._deliver_broadcast(message):
            self._relay_broadcast(message.payload, message.limit, message.depth)

    def _deliver_broadcast(self, message):
        """Deliver locally; returns False for an already-seen duplicate."""
        token = message.payload.get("token") if isinstance(message.payload, dict) else None
        if token is not None:
            if token in self._seen_broadcasts:
                return False
            # Soft state: a duplicate can only come from a child re-send
            # or a ``bcast_repair``, both within a few RPC timeouts.
            self._seen_broadcasts[token] = self.clock.now + DELIVERY_DEDUP_TTL
        for handler in self._broadcast_handlers:
            handler(message.payload, message.origin, message.depth)
        return True

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
    # Maintenance protocol
    # ------------------------------------------------------------------
    def _install_rpc_handlers(self):
        self.rpc_handler("get_neighbors", self._rpc_get_neighbors)
        self.rpc_handler("notify", self._rpc_notify)
        self.rpc_handler("ping", self._rpc_ping)
        self.rpc_handler("owns", self._rpc_owns)
        self.rpc_handler("successor_leaving", self._rpc_successor_leaving)

    def _rpc_get_neighbors(self, src, request, respond):
        # The stabilise probe is also the prober's notify (it names us
        # as its successor) and, from our predecessor, its keep-alive:
        # one exchange per ring edge per period. Apply the notify rule
        # first so the answer already reflects it.
        self._consider_predecessor(request["node"])
        respond({
            "predecessor": self.predecessor,
            "successors": list(self.successors),
        })
        if self._digest_handler is not None:
            self._digest_handler(request.get("digest"), src)

    def _rpc_notify(self, src, request, respond):
        respond({"accepted": self._consider_predecessor(request["node"])})

    def _consider_predecessor(self, candidate):
        """Chord's notify rule; True if ``candidate`` was adopted.

        No liveness oracle here: a dead predecessor is evicted by
        check_predecessor's ping timeout, after which any notifier is
        accepted. This keeps failure detection purely timeout-driven.
        Hearing from the node that is (now) our predecessor restarts
        its silence clock -- see :meth:`_check_predecessor`.
        """
        accepted = self.predecessor is None or in_interval(
            candidate.id, self.predecessor.id, self.id
        )
        if accepted:
            self.predecessor = candidate
            self._handoff_keys_to(candidate)
        if candidate == self.predecessor:
            self._predecessor_heard = self.clock.now
        return accepted

    def _rpc_ping(self, src, request, respond):
        respond({"alive": True})

    def _rpc_owns(self, src, request, respond):
        respond({"owns": self.owns(request["key"])})

    def _rpc_successor_leaving(self, src, request, respond):
        replacements = [r for r in request["successors"] if r != self.ref]
        if replacements:
            self.successors = replacements[:SUCCESSOR_LIST_LENGTH]
        respond({"ok": True})

    def _handoff_keys_to(self, new_pred):
        """Transfer items a new predecessor now owns: keys outside (new_pred, self]."""
        def belongs_elsewhere(item):
            key = storage_key(item.namespace, item.resource_id)
            return not in_interval(key, new_pred.id, self.id, inclusive_hi=True)

        items = self.store.items_in_range(belongs_elsewhere)
        if items or self._seen_mids:
            # Delivery ids are not range-partitioned (the mid names the
            # sender, not the key), so the new owner gets the whole set;
            # dedup is idempotent and the TTL sweeps the excess.
            self.send(
                new_pred.address,
                msg.StoreItems(items, mids=dict(self._seen_mids)),
            )

    def _stabilize(self):
        """Probe the successor: one request, one reply, per period.

        The request carries our ref, so the successor applies the
        notify rule before it answers; a separate ``notify`` follows
        only when the answer put a *different* node at the head of the
        successor list (that node has not heard from us yet). A
        successor that stays silent for ``rpc_timeout`` is suspected
        and the next list entry takes over, so a dead successor is
        noticed within ``STABILIZE_PERIOD + rpc_timeout``.
        """
        succ = self.successor
        if succ == self.ref:
            if self.predecessor is not None and self.predecessor != self.ref:
                self.successors = [self.predecessor]
            return

        def on_reply(reply):
            head = self.successor
            fresh = [head]
            pred = reply["predecessor"]
            if pred is not None and pred != self.ref and in_interval(
                pred.id, self.id, succ.id
            ) and not self._is_suspect(pred.address):
                # A node sits between us and succ. succ's own list
                # never names succ, so seed both or succ drops out of
                # our list for a round.
                fresh = [pred, succ]
            for ref in reply["successors"]:
                if ref not in fresh and ref != self.ref:
                    fresh.append(ref)
            self.successors = fresh[:SUCCESSOR_LIST_LENGTH]
            if self.successor != head:
                self._notify_successor()

        def on_timeout():
            self._suspect(succ.address)
            # Successor is gone: fail over to the next live entry.
            if len(self.successors) > 1:
                self.successors.pop(0)
            else:
                self.successors = [self.ref]

        request = {"kind": "get_neighbors", "node": self.ref}
        if self._digest_provider is not None:
            digest = self._digest_provider()
            if digest is not None:
                request["digest"] = digest
        self.rpc(succ.address, request, on_reply, on_timeout)

    def _notify_successor(self):
        if self.successor == self.ref:
            return
        self.rpc(
            self.successor.address, {"kind": "notify", "node": self.ref},
            ignore_answer,
        )

    def _fix_fingers(self):
        """Refresh the next ``FINGERS_PER_ROUND`` finger slots.

        Most slots start inside ``(self, successor]``: this node names
        their owner itself and sets the finger in place, no lookup. A
        slot further out that already names an unsuspected node is
        *verified*: one ``owns(start)`` RPC to that node, which is also
        the only liveness probe a finger ever gets. The routed
        ``lookup`` (several acked hops) runs only when there is nothing
        to verify -- an empty slot, a suspected finger -- or the finger
        says no (ownership moved, or it is a proximity choice rather
        than the owner) or stays silent, which also makes it a suspect.
        """
        for _ in range(FINGERS_PER_ROUND):
            index = self._next_finger
            self._next_finger = (self._next_finger + 1) % ID_BITS
            start = (self.id + (1 << index)) % (1 << ID_BITS)
            local = self._local_owner(start)
            if local is not None:
                self.fingers[index] = self._proximity_finger(
                    index, start, local[0]
                )
                continue
            finger = self.fingers[index]
            if (finger is None or finger == self.ref
                    or self._is_suspect(finger.address)):
                self._lookup_finger(index, start)
            else:
                self._verify_finger(index, start, finger)

    def _lookup_finger(self, index, start):
        def set_finger(owner, hops):
            if owner is not None:
                self.fingers[index] = self._proximity_finger(
                    index, start, owner
                )

        self.lookup(start, set_finger)

    def _verify_finger(self, index, start, finger):
        def on_reply(reply):
            if not reply["owns"]:
                self._lookup_finger(index, start)

        def on_timeout():
            self._suspect(finger.address)
            self._lookup_finger(index, start)

        self.rpc(
            finger.address, {"kind": "owns", "key": start},
            on_reply, on_timeout,
        )

    def _proximity_finger(self, index, start, canonical):
        """Proximity neighbor selection for one finger slot.

        Any node in ``[start, start + 2^index)`` is a valid entry for
        slot ``index`` -- greedy routing still at least halves the
        remaining distance, keeping lookups O(log N) -- so when the
        canonical successor of ``start`` is in another region, prefer a
        known same-region node from inside the slot's span (Gummadi et
        al.'s PNS, the standard latency-stretch fix for Chord).
        """
        if not self._proximity_on():
            return canonical
        if self._region_of(canonical.address) == self.region:
            return canonical
        span = 1 << index
        best = canonical
        best_distance = None
        for candidate in self._candidates():
            if self._is_suspect(candidate.address):
                continue
            if self._region_of(candidate.address) != self.region:
                continue
            d = distance_cw(start, candidate.id)
            if d < span and (best_distance is None or d < best_distance):
                best = candidate
                best_distance = d
        return best

    def _check_predecessor(self):
        """Ping the predecessor only if it has gone quiet.

        Its stabilise probe reaches us every ``STABILIZE_PERIOD`` and
        counts as the ping, so in a settled ring this sends nothing. A
        predecessor silent for a whole ``CHECK_PREDECESSOR_PERIOD`` is
        pinged and cleared ``rpc_timeout`` later if that goes
        unanswered too. Worst case from its last probe to eviction:
        the check just misses a full period of silence, so the *next*
        one pings -- ``2 * CHECK_PREDECESSOR_PERIOD + rpc_timeout``.
        """
        pred = self.predecessor
        if pred is None or pred == self.ref:
            return
        silent = self.clock.now - self._predecessor_heard
        if silent < CHECK_PREDECESSOR_PERIOD:
            return

        def on_timeout():
            self._suspect(pred.address)
            if self.predecessor == pred:
                self.predecessor = None

        def on_reply(reply):
            if self.predecessor == pred:
                self._predecessor_heard = self.clock.now

        self.rpc(pred.address, {"kind": "ping"}, on_reply, on_timeout)

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
            for item in payload.items:
                self.store.put_item(item)
            for mid, forget_at in getattr(payload, "mids", {}).items():
                # Merge keeping the later deadline: if both sides saw
                # the mid, the fresher sighting wins.
                if forget_at > self._seen_mids.get(mid, 0.0):
                    self._seen_mids[mid] = forget_at
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
