"""Plan anti-entropy: a node's continuous plans and stop tombstones kept
in step with its ring neighbours.

A plan is broadcast once, and engines keep only soft state: a crash
loses adopted queries and tombstones, and a broadcast can miss a node.
What brings them back is this module. Every stabilise probe a node
sends its successor carries a digest of the node's live continuous
qids and unexpired tombstones
(:meth:`~repro.dht.chord.ChordNode.on_neighbor_digest`). The probed
engine compares it with its own; on a mismatch the two swap qid lists
in ``qsync`` direct messages, each adopts the other's tombstones, and
each sends only the plans the other lacks. A recovered node (which
advertises nothing) therefore re-adopts within one probe of
rejoining, and a node a stop broadcast missed drops the query at its
next exchange. One-shot and recursive plans never take part.

A tombstone lasts until the stopped plan's retire instant
(:func:`~repro.core.engine.retire_instant`), which the stop broadcast
carries: until then a node the stop missed may still run the plan and
advertise it. A plan without LIFETIME never retires, and neither does
its tombstone.
"""

import zlib

# The direct-message op the engine hands to ``PlanSync.on_sync``.
SYNC_OP = "qsync"


class PlanSync:
    """One engine's side of plan anti-entropy, and its tombstones."""

    def __init__(self, engine):
        self.engine = engine
        self.tombstones = {}  # qid -> forget-at instant

    def bury(self, qid, until):
        """Tombstone ``qid`` until ``until``. A tombstone learnt from a
        neighbour keeps the later of the two instants, so every node
        forgets it when the last one does."""
        self._sweep()
        self.tombstones[qid] = max(until, self.tombstones.get(qid, until))

    def buried(self, qid):
        """Was ``qid`` stopped, and is its plan not yet retired?"""
        self._sweep()
        return qid in self.tombstones

    def _sweep(self):
        """Reclaim expired tombstones (their qid never comes back)."""
        now = self.engine.clock.now
        for qid in [q for q, t in self.tombstones.items() if t <= now]:
            del self.tombstones[qid]

    def _state(self):
        """What this node advertises: the qids of its continuous
        queries in adoption order (a retired query has already left
        ``queries``) and its unexpired tombstones, ``{qid: forget_at}``."""
        now = self.engine.clock.now
        live = [qid for qid, query in self.engine.queries.items()
                if query.plan.mode == "continuous"]
        stopped = {qid: forget_at
                   for qid, forget_at in self.tombstones.items()
                   if forget_at > now}
        return live, stopped

    def digest(self):
        """The digest riding this node's stabilise probes, or None
        when it has nothing to advertise. A CRC of the sorted ids, not
        ``hash()``: two nodes must agree whatever their hash seeds."""
        live, stopped = self._state()
        if not live and not stopped:
            return None
        text = "\n".join(sorted(live)) + "\0" + "\n".join(sorted(stopped))
        return zlib.crc32(text.encode())

    def on_digest(self, digest, src):
        """A ring neighbour probed us with its digest. On a mismatch it
        gets our lists; when it advertised nothing, we know what it
        lacks and send the plans at once, else we ask for its lists."""
        if digest != self.digest():
            self._send_lists(src, set() if digest is None else None)

    def _send_lists(self, dst, known):
        """Our qid lists to ``dst``, with the plans it lacks when
        ``known`` (the qids it holds, live or stopped) is given, or a
        request for its own lists when it is None."""
        live, stopped = self._state()
        payload = {"op": SYNC_OP, "live": live, "stopped": stopped}
        if known is None:
            payload["ask"] = True
        else:
            payload["plans"] = self._lacking(known)
        self.engine.dht.send_direct(dst, payload)

    def _lacking(self, known):
        """Our continuous plans whose qid is not in ``known``, each as
        the broadcast carried it."""
        return [
            {"qid": qid, "plan": query.plan, "t0": query.t0,
             "origin": query.origin}
            for qid, query in self.engine.queries.items()
            if query.plan.mode == "continuous" and qid not in known
        ]

    def on_sync(self, payload, src):
        """One leg of a plan sync: take the sender's tombstones, then
        its plans; then, if it sent its lists, answer with ours (when
        asked) or with just the plans it lacks."""
        engine = self.engine
        now = engine.clock.now
        stopped = payload.get("stopped", {})
        for qid, forget_at in stopped.items():
            if forget_at > now:
                engine._stop_query(qid, forget_at)
        for plan in payload.get("plans", ()):
            engine._adopt_query(plan)
        live = payload.get("live")
        if live is None:
            return
        known = set(live).union(stopped)
        if payload.get("ask"):
            self._send_lists(src, known)
            return
        plans = self._lacking(known)
        if plans:
            engine.dht.send_direct(src, {"op": SYNC_OP, "plans": plans})
