"""How a :class:`~repro.dht.chord.ChordNode` moves a message toward a key.

Next-hop choice (greedy finger routing, optionally preferring a
same-region peer), hop-by-hop acked forwarding through a per-instant
outbox that ships each next hop's messages as one wire message, lookup
attempts, what a routed message does on arrival at its key's owner, and
the finger-table broadcast relay with its ack and repair. :class:`Routing`
is a mixin over the node and its :class:`~repro.dht.ring.Ring`.
"""

from repro.dht import messages as msg
from repro.dht.ring import DELIVERY_DEDUP_TTL, STABILIZE_PERIOD
from repro.dht.rpc import ignore_answer
from repro.util.ids import distance_cw, in_interval


class Routing:
    """Forwarding state and routing steps of one node (see the module doc)."""

    def _init_routing(self):
        self._seen_broadcasts = {}  # token -> forget-at, like _seen_mids
        # Acked hops filed this instant, not yet on the wire:
        # (next hop's address, guard timeout) -> (next hop, [the rest
        # of _send_hop's arguments, one tuple per message]).
        self._outbox = {}
        self._outbox_timer = None

    # ------------------------------------------------------------------
    # Next-hop selection
    # ------------------------------------------------------------------
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
            if candidate.address in exclude or self.is_suspect(candidate.address):
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
            if fallback.address in exclude or self.is_suspect(fallback.address):
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

    def _send_hop(self, nxt, message, target, tried, on_suspect=None,
                  retried=False, handed=False):
        """Forward ``message`` to ``nxt``, expecting a receipt ack.

        ``handed`` marks the hop that hands the key to our successor
        because it lies between us and it (see :meth:`_handle_route`).
        Sends nothing itself: the hop is filed in the outbox under
        ``(nxt, guard timeout)``, and one zero-delay timer -- which the
        simulator fires after the whole same-instant cascade -- ships
        every bucket as one wire message (:meth:`_ship_outbox`).
        :meth:`_hop_silent` is what happens when no ack comes back.
        """
        wait = (self.config.hop_retransmit_timeout if retried
                else self.config.rpc_timeout)
        message.hops += 1
        message.handed = handed
        hops = self._outbox.get((nxt.address, wait))
        if hops is None:
            hops = self._outbox[(nxt.address, wait)] = (nxt, [])
        hops[1].append((message, target, tried, on_suspect, retried, handed))
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
        suspected = self.is_suspect(nxt.address)
        for message, target, tried, on_suspect, retried, handed in hops:
            if not (retried or suspected) and self._dup_sensitive(message):
                self._send_hop(nxt, message, target, tried, on_suspect, True,
                               handed)
                continue
            self._suspect(nxt.address)
            if on_suspect is not None:
                on_suspect()
            message.handed = False  # back here: no hop handed it over
            self._advance(message, target, tried | {nxt.address})

    def _advance(self, message, target, tried):
        """Terminal-check then forward ``message`` toward ``target``.

        A message ends here when it is flagged terminal, when the hop
        that brought it handed the key over (``handed``; only routes
        arrive so, see :meth:`_handle_route`), or when we own the key
        by our own predecessor pointer
        (:meth:`~repro.dht.ring.Ring.terminates`). A key that lies
        between us and our successor is handed to it.
        """
        if message.kind == "lookup" and message.joining:
            # A joiner asks for its successor: the first node after its
            # id other than itself. Peers may still hold it from before
            # a crash, so treat it as gone -- its successor owns its id,
            # and no hop goes to it (it would answer for the whole ring).
            if self.predecessor == message.origin:
                self._terminal(message)
                return
            tried = tried | {message.origin.address}
        if message.force_terminal or message.handed or self.terminates(target):
            self._terminal(message)
            return
        if in_interval(target, self.id, self.successor.id, inclusive_hi=True):
            if not (self.is_suspect(self.successor.address)
                    or self.successor.address in tried):
                self._send_hop(self.successor, message, target, tried,
                               handed=True)
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
                and not self.is_suspect(heir.address)
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
    # Lookup attempts (find the owner of a key)
    # ------------------------------------------------------------------
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
        # Lookups keep the owner check against our own predecessor
        # pointer: trusting the handing hop answers a lookup for a
        # crashed predecessor's keys here, before the ring has healed,
        # with an owner that ground truth does not name yet.
        message.handed = False
        self._advance(message, message.target, frozenset())

    # ------------------------------------------------------------------
    # Key-routed application messages: per-hop upcall, arrival
    # ------------------------------------------------------------------
    def _handle_route(self, message):
        """A routed message arrived: hop back, upcall, then advance.

        The hop that hands a key over decides (Chord's find_successor
        contract): a route whose last hop handed the key to us, its
        sender's successor, ends here -- even when our predecessor
        pointer still names a crashed host and
        :meth:`~repro.dht.ring.Ring.terminates` would send it on round
        the ring. The one exception is a predecessor the sender did not
        know of, that joined between it and us: when it owns the key
        and proved itself alive within ``STABILIZE_PERIOD +
        rpc_timeout``, the route hops back to it, flagged terminal,
        before any upcall. The upcall's ``at_owner`` and the delivery
        read the same decision (:meth:`at_owner`).
        """
        self._ack_hop(message)
        if message.handed and not self.owns(message.key):
            pred = self.predecessor
            if pred is not None and (
                    self.clock.now - self._predecessor_heard
                    <= STABILIZE_PERIOD + self.config.rpc_timeout):
                message.force_terminal = True
                self._send_hop(pred, message, message.key, frozenset())
                return
        if message.upcall is not None:
            handler = self._intercepts.get(message.upcall)
            if handler is not None:
                at_owner = message.force_terminal or self.at_owner(message)
                keep_going = handler(self, message, at_owner)
                if not keep_going:
                    return
        self._advance(message, message.key, frozenset())

    def at_owner(self, message):
        """Is this node the owner of the routed ``message`` it holds?
        Yes when the hop that brought it handed the key over, or when
        the key lies in our own range."""
        return message.handed or self.terminates(message.key)

    def _route_arrived(self, message):
        """The overlay's own ops run here; any other payload is an app
        delivery: a replay of its delivery id is dropped, the rest goes
        to the one handler :meth:`~repro.dht.chord.ChordNode.on_deliver`
        registered."""
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
        elif op == "bcast_repair":
            repaired = msg.Broadcast(
                payload["payload"], payload["limit"], message.origin,
                payload["depth"],
            )
            if self._deliver_broadcast(repaired):
                self._relay_broadcast(payload["payload"], payload["limit"],
                                      payload["depth"])
        elif (self.accept_delivery_once(payload.get("mid"))
              and self._delivery_handler is not None):
            self._delivery_handler(payload, message)

    # ------------------------------------------------------------------
    # Broadcast relay (query dissemination)
    # ------------------------------------------------------------------
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
                if not self.is_suspect(ref.address)]
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
