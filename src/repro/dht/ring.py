"""The ring under a :class:`~repro.dht.chord.ChordNode`: who a node's
neighbours are, and how it keeps knowing.

Membership (create, join, graceful leave), the three maintenance clocks
over one conversation per ring edge, timeout-driven failure suspicion,
the finger table with its proximity choice, the RPC handlers the clocks
talk to, and the handoff that moves stored items -- and the delivery
ids consumed under them -- to whoever takes over a key range. The
stabilise exchange sends only what the other side lacks: the probe
names no prober (its address is the sender's), carries the
neighbour-digest hook's digest only when the successor does not hold
it, and a settled probe echoes nothing; the reply is empty while the
prober holds the successor's current lists.
:class:`Ring` is a mixin over :class:`~repro.sim.node.SimNode` and
:class:`~repro.dht.rpc.RpcNode`, like ``RpcNode`` itself.
"""

from repro.dht import messages as msg
from repro.dht.rpc import ignore_answer
from repro.dht.storage import storage_key
from repro.sim.processes import PeriodicProcess
from repro.util.ids import ID_BITS, distance_cw, in_interval

# Three maintenance clocks over *one* conversation per ring edge, not
# three independent probes (periods are Bamboo's defaults from the
# churn paper the demo cites: periodic, not reactive, recovery).
#
# Every STABILIZE_PERIOD a node probes its successor (``get_neighbors``,
# one request and one reply). The probe's sender is the prober, so it is
# also the notify and, for the receiver, its predecessor's keep-alive. A
# silent successor is replaced ``rpc_timeout`` after the probe. A
# settled probe is ``{kind}`` alone: the successor remembers which
# version of its neighbour lists it last sent this prober, and the
# reply is empty while that is still its version, else it carries the
# version, its predecessor and its successor list. The prober names the
# version it holds (``seen``) only when the successor's memory may be
# wrong (see :meth:`Ring._stabilize`).
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
STORAGE_SWEEP_PERIOD = 5.0
SUSPECT_TTL = 30.0
# How long a consumed delivery id or a delivered broadcast token is
# remembered to drop replays (hop-by-hop acks make routed forwarding
# at-least-once; a delivered message whose ack was lost is re-forwarded).
# Must comfortably outlive the longest retry chain: ``lookup_timeout`` x
# retries plus routing slack.
DELIVERY_DEDUP_TTL = 30.0
# What a responder hands its digest handler for a prober whose digest
# it never received: not None, which means "advertises nothing", and
# equal to no digest, so the layer above asks rather than assumes.
UNHEARD_DIGEST = object()


class Ring:
    """Ring state and upkeep of one participant (see the module doc)."""

    def _init_ring(self, rng):
        self.successors = [self.ref]  # successor list; [0] is the successor
        self.predecessor = None
        self.fingers = [None] * ID_BITS
        self._next_finger = 0
        # When the current predecessor last proved itself alive (its
        # stabilise probe, a notify, or an answered ping).
        self._predecessor_heard = 0.0
        self._bootstrap_address = None
        self._suspects = {}  # address -> suspicion expiry (sim time)
        self._next_mid = 0
        self._seen_mids = {}  # delivery id -> forget-at (replay dedup)
        self._digest_provider = None
        self._digest_handler = None
        # Responder side of the stabilise reply: the (predecessor,
        # successors) it last answered with, and that state's version.
        # Never reset, crash and recover included, so one version names
        # one state for good and a prober's echo can never match a
        # state it has not seen.
        self._neighbors_answered = None
        self._neighbors_version = 0
        # Prober side: (successor address, version, predecessor,
        # successors) from the last reply that carried the lists.
        self._neighbors_heard = None
        # Responder side: prober address -> [the digest its last probe
        # carried, the version last sent it with the lists]. Never
        # reset, like the version, so a prober's belief that we hold
        # its digest and know what it holds stays true.
        self._probers = {}
        # Prober side: (successor address, digest) of the latest probe,
        # and the same pair once that probe was answered -- then the
        # successor holds that digest and knows which lists we hold.
        # Sending clears the latter and only the latest probe's answer
        # sets it, so the next probe states both after a timeout or a
        # crash, while a probe is open, and to another successor.
        self._probe_sent = None
        self._probe_held = None
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
        self.rpc_handler("get_neighbors", self._rpc_get_neighbors)
        self.rpc_handler("notify", self._rpc_notify)
        self.rpc_handler("ping", self._rpc_ping)
        self.rpc_handler("owns", self._rpc_owns)
        self.rpc_handler("successor_leaving", self._rpc_successor_leaving)

    # ------------------------------------------------------------------
    # Membership
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
            self._hand_off(self.successor, self.store.lscan_all())
            if self.predecessor is not None and self.predecessor != self.ref:
                self.send(
                    self.predecessor.address,
                    msg.RpcRequest(-1, self.address, {
                        "kind": "successor_leaving",
                        "successors": list(self.successors),
                    }),
                )
        if self._outbox:
            # Forwards filed this instant still go out: leaving is
            # graceful, the messages were accepted under an ack.
            self._ship_outbox()
        self.crash()

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

    def owns(self, key):
        """True if this node is responsible for ``key``.

        A node owns the keys in ``(predecessor, self]``. With no known
        predecessor we claim ownership only when we are our own
        successor (single-node ring); otherwise routing decides.
        """
        if self.predecessor is None:
            return self.successor == self.ref
        return in_interval(key, self.predecessor.id, self.id, inclusive_hi=True)

    def terminates(self, key):
        """True if a message for ``key`` ends here: this node owns the
        key, or it knows no successor but itself, so nothing is nearer."""
        return self.owns(key) or self.successor == self.ref

    def _local_owner(self, key):
        """``(owner, hops)`` when this node can name ``key``'s owner
        without asking anyone -- itself or its successor -- else None."""
        if self.terminates(key):
            return self.ref, 0
        if in_interval(key, self.id, self.successor.id, inclusive_hi=True):
            return self.successor, 1
        return None

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

    # ------------------------------------------------------------------
    # Failure suspicion (timeout-driven, no oracle)
    # ------------------------------------------------------------------
    def _suspect(self, address):
        self._suspects[address] = self.clock.now + SUSPECT_TTL

    def is_suspect(self, address):
        """Did ``address`` go silent on us within the last SUSPECT_TTL?"""
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
        every proximity preference degrades to the flat ring.
        """
        return self.network.latency.region_of(address)

    def _proximity_on(self):
        return self.config.proximity_routing and self.region is not None

    # ------------------------------------------------------------------
    # Delivery ids and the handoff of a key range
    # ------------------------------------------------------------------
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

    def _hand_off(self, heir, items):
        """Ship ``items`` to the node taking over their range.

        Keys AND consumed delivery ids move together: the heir inherits
        the range, so it must also inherit the dedup memory, or a
        retransmission raced against the handoff double-delivers there.
        Delivery ids are not range-partitioned (the mid names the
        sender, not the key), so the heir gets the whole set; dedup is
        idempotent and the TTL sweeps the excess.
        """
        if items or self._seen_mids:
            self.send(heir.address, msg.StoreItems(items, mids=dict(self._seen_mids)))

    def _handoff_keys_to(self, new_pred):
        """Transfer items a new predecessor now owns: keys outside (new_pred, self]."""
        def belongs_elsewhere(item):
            key = storage_key(item.namespace, item.resource_id)
            return not in_interval(key, new_pred.id, self.id, inclusive_hi=True)

        self._hand_off(new_pred, self.store.items_in_range(belongs_elsewhere))

    def _handle_store_items(self, message):
        for item in message.items:
            self.store.put_item(item)
        for mid, forget_at in message.mids.items():
            # A mid both sides saw keeps the fresher sighting.
            if forget_at > self._seen_mids.get(mid, 0.0):
                self._seen_mids[mid] = forget_at

    def _sweep_soft_state(self):
        self.store.sweep()
        now = self.clock.now
        for seen in (self._seen_mids, self._seen_broadcasts):
            for key in [k for k, t in seen.items() if t <= now]:
                del seen[key]

    # ------------------------------------------------------------------
    # Maintenance protocol
    # ------------------------------------------------------------------
    def _rpc_get_neighbors(self, src, request, respond):
        # The stabilise probe is also the prober's notify (it names us
        # as its successor) and, from our predecessor, its keep-alive:
        # one exchange per ring edge per period. Apply the notify rule
        # first so the answer already reflects it. The reply is empty
        # when the prober holds the version of this very state; the
        # state is compared as a snapshot, so no assignment to
        # ``successors`` or ``predecessor`` needs a hook.
        self._consider_predecessor(self._sender_ref(src))
        state = (self.predecessor, tuple(self.successors))
        if state != self._neighbors_answered:
            self._neighbors_answered = state
            self._neighbors_version += 1
        record = self._probers.get(src)
        if record is None:
            record = self._probers[src] = [UNHEARD_DIGEST, None]
        # A probe without ``seen`` or ``digest`` means "what you last
        # sent me" and "the digest I sent you last".
        if request.get("seen", record[1]) == self._neighbors_version:
            respond({})
        else:
            record[1] = self._neighbors_version
            respond({"version": self._neighbors_version,
                     "predecessor": self.predecessor,
                     "successors": list(self.successors)})
        if "digest" in request:
            record[0] = request["digest"]
        if self._digest_handler is not None:
            self._digest_handler(record[0], src)

    def _rpc_notify(self, src, request, respond):
        respond({"accepted": self._consider_predecessor(self._sender_ref(src))})

    def _sender_ref(self, src):
        """The ref of the node at ``src``: our predecessor's own when it
        is the sender, as in a settled ring, else one built from the
        address, which a node's id is the hash of."""
        pred = self.predecessor
        if pred is not None and pred.address == src:
            return pred
        return self.ref_for(src)

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

    def _stabilize(self):
        """Probe the successor: one request, one reply, per period.

        The successor applies the notify rule to the request's sender
        before it answers; a separate ``notify`` follows
        only when the answer put a *different* node at the head of the
        successor list (that node has not heard from us yet). A
        successor that stays silent for ``rpc_timeout`` is suspected
        and the next list entry takes over, so a dead successor is
        noticed within ``STABILIZE_PERIOD + rpc_timeout``.

        A successor whose state still has the version of the lists we
        hold answers with an empty reply. It knows that version: it is
        the one it last sent us with the lists, unless the reply that
        carried them was lost. So the probe names the version we hold
        (``seen``, None for nothing) only when the successor may not
        know it: no answer to our latest probe to this successor has
        arrived yet -- it is still open, it timed out, or we crashed
        since -- or the successor is new. The lists reused on an empty
        reply are the ones captured here, as the probe leaves, not
        whatever a later reply cached, and only the latest probe's
        answer is kept: a late answer to an older one may carry older
        lists than the successor knows we hold. A lost reply costs
        nothing: the next probe names the old version and gets the
        lists again.

        The neighbour digest rides the probe only when it differs from
        the one the successor holds: the digest of the latest probe, to
        this successor, once it was answered. A late answer to an older
        probe proves nothing about the newer one.
        """
        succ = self.successor
        if succ == self.ref:
            if self.predecessor is not None and self.predecessor != self.ref:
                self.successors = [self.predecessor]
            return
        heard = self._neighbors_heard
        if heard is not None and heard[0] != succ.address:
            heard = None

        def on_reply(reply):
            latest = self._probe_sent is sent
            if latest:
                self._probe_held = sent
            if "successors" in reply:
                pred, successors = reply["predecessor"], reply["successors"]
                if latest:
                    self._neighbors_heard = (
                        succ.address, reply["version"], pred, successors)
            else:
                pred, successors = heard[2:]
            head = self.successor
            fresh = [head]
            if pred is not None and pred != self.ref and in_interval(
                pred.id, self.id, succ.id
            ) and not self.is_suspect(pred.address):
                # A node sits between us and succ. succ's own list
                # never names succ, so seed both or succ drops out of
                # our list for a round.
                fresh = [pred, succ]
            for ref in successors:
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

        held = self._probe_held
        provider = self._digest_provider
        sent = (succ.address,
                provider() if provider is not None else UNHEARD_DIGEST)
        request = {"kind": "get_neighbors"}
        if held is None or held[0] != succ.address:
            request["seen"] = heard[1] if heard is not None else None
        if provider is not None and sent != held:
            request["digest"] = sent[1]
        self._probe_sent = sent
        self._probe_held = None
        self.rpc(succ.address, request, on_reply, on_timeout)

    def _notify_successor(self):
        if self.successor == self.ref:
            return
        self.rpc(self.successor.address, {"kind": "notify"}, ignore_answer)

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
                    or self.is_suspect(finger.address)):
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
            if self.is_suspect(candidate.address):
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
