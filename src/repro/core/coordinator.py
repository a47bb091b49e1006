"""The query site: dissemination, collection, the close, lifecycle.

Any node can be a query site. Submitting a query adopts its plan at
this site's engine at once and files it for the instant's one plan
broadcast: the first plan filed in an instant arms a zero-delay timer,
which sends every plan the site submitted in that instant over the
overlay as one payload (``plans``: qid -> plan, under one ``t0`` and
origin), so a fleet submitted together costs one broadcast tree, not
one per query. Plans are soft state like everything else: a node that
the broadcast missed, or that crashed and recovered, gets a continuous
plan back from its ring neighbours' anti-entropy (see
:mod:`repro.core.plansync`), not from this site. Result rows stream back
as direct messages tagged with the epoch they belong to; collection is
keyed by that tag, and rows for an already-closed epoch are dropped.

One close rule serves every plan: epoch ``k``, from the plan's
``first_epoch`` to its ``last_epoch`` (:mod:`repro.core.opgraph`),
closes at ``plan.t_k(t0, k) + plan.deadline``. The engines and the
Bloom round-trips run the same grid. A close pushes the epoch's rows
through the plan's site fragment (:mod:`repro.core.site`: what cannot
be finished in-network) and hands an :class:`EpochResult` to the
caller.

A one-shot plan whose every scan is a keyed ``get``
(``QueryPlan.at_site``) is not broadcast at all: its one
:class:`~repro.core.dataflow.EpochExecution` runs here, hands result
rows to :meth:`Coordinator.on_result` without a wire in between, and
closes at the plan's deadline -- one get round-trip plus the
operators' holds.

Stopping a query is one broadcast too; engines tombstone the stopped
qid, and the same anti-entropy carries the tombstone to nodes the stop
missed.

Recursive queries additionally watch progress reports and close their
one epoch 0 early on quiescence: no node has produced a novel tuple for
``QUIET_PERIOD`` seconds means the fixpoint is reached.
"""

from repro.core.dataflow import EpochExecution
from repro.core.site import SiteStage

# Recursive quiescence: no progress report for QUIET_PERIOD seconds is
# the fixpoint, but never before MIN_RUNTIME -- the first reports need
# a plan broadcast and a scan to happen.
QUIET_PERIOD = 3.0
MIN_RUNTIME = 3.0


class EpochResult:
    """What one epoch of one query produced.

    ``approximate`` labels answers the admission policy degraded
    (sketch-swapped aggregates, sampled scans): a list of the applied
    degradation records from ``plan.metadata["admission"]``, or None
    for exact answers. Degraded queries are never silently wrong --
    every result they produce carries the label.
    """

    def __init__(self, qid, epoch, t0, rows, columns, reporters, closed_at,
                 approximate=None):
        self.qid = qid
        self.epoch = epoch
        self.t0 = t0
        self.rows = rows
        self.columns = columns
        self.reporters = reporters  # addresses that contributed rows
        self.closed_at = closed_at
        self.approximate = approximate

    def dicts(self):
        if self.columns is None:
            return [dict(enumerate(row)) for row in self.rows]
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __repr__(self):
        return "EpochResult({!r}, epoch={}, {} rows, {} reporters)".format(
            self.qid, self.epoch, len(self.rows), len(self.reporters)
        )


class QueryHandle:
    """The caller's view of a submitted query."""

    def __init__(self, coordinator, qid, plan, t0, on_epoch):
        self.coordinator = coordinator
        self.qid = qid
        self.plan = plan
        self.t0 = t0
        self.on_epoch = on_epoch
        self.results = {}  # epoch -> EpochResult
        self.raw = {}  # epoch -> list of rows (append-mode)
        self.raw_replace = {}  # epoch -> {node: rows} (replace-mode)
        self.reporters = {}  # epoch -> set of addresses
        self.bloom_partials = {}  # (epoch, op_id) -> {side: filter}
        self.bloom_done = -1  # epochs <= this already broadcast filters
        self.last_progress = t0
        self.finished = False
        self.execution = None  # the plan's one execution if it runs here
        self.site = SiteStage(plan)  # the plan's site fragment

    def result(self, epoch=0):
        return self.results.get(epoch)

    def stop(self):
        self.coordinator.stop(self.qid)


class Coordinator:
    def __init__(self, engine):
        self.engine = engine
        self.dht = engine.dht
        self.clock = engine.clock
        self._seq = 0
        self.active = {}  # qid -> QueryHandle
        # qid -> plan submitted this instant, adopted here, not yet sent
        self._unsent = {}
        engine.coordinator = self

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, plan, on_epoch=None):
        self._seq += 1
        qid = "{}#{}".format(self.engine.address, self._seq)
        t0 = self.clock.now
        handle = QueryHandle(self, qid, plan, t0, on_epoch)
        self.active[qid] = handle
        if plan.at_site:
            # Every scan is a keyed get: the plan runs here and nowhere
            # else, so there is nothing to broadcast.
            handle.execution = EpochExecution(
                self.engine, plan, qid, 0, t0, self.engine.address)
            handle.execution.start()
        else:
            # Arm the flush before adopting: the relay sends then go
            # out ahead of any zero-delay timer the adoption sets.
            if not self._unsent:
                self.engine.set_timer(0.0, self._broadcast_plans)
            self._unsent[qid] = plan
            self.engine._adopt_query({
                "qid": qid, "plan": plan, "t0": t0,
                "origin": self.engine.address,
            })
        self._schedule_close(handle, plan.first_epoch)
        if plan.recursive:
            self._schedule_quiescence_check(handle)
        if plan.metadata.get("bloom_broadcast_offset") is not None:
            self._schedule_bloom(handle, 0)
        return handle

    def _broadcast_plans(self):
        """Send every plan submitted here this instant as one broadcast.

        The token names the batch by its first qid (a site never reuses
        one) and its plan count."""
        plans, self._unsent = self._unsent, {}
        if not plans:
            return  # each was stopped in its submit instant
        self.dht.broadcast({
            "ctl": "plan",
            "token": "plan|{}|{}".format(next(iter(plans)), len(plans)),
            "t0": self.clock.now,
            "origin": self.engine.address,
            "plans": plans,
        })

    # ------------------------------------------------------------------
    # Epoch close
    # ------------------------------------------------------------------
    def _schedule_close(self, handle, epoch):
        plan = handle.plan
        t_k = plan.t_k(handle.t0, epoch)
        close_at = t_k + plan.deadline
        self.engine.set_timer(
            max(0.0, close_at - self.clock.now), self._close_epoch, handle, epoch, t_k
        )

    def _close_epoch(self, handle, epoch, t_k):
        if handle.finished or handle.qid not in self.active:
            return
        rows = handle.raw.pop(epoch, [])
        for node_rows in handle.raw_replace.pop(epoch, {}).values():
            rows.extend(node_rows)
        rows = handle.site.run(epoch, rows)
        metadata = handle.plan.metadata
        stats_key, stats = metadata.get("stats_key"), self.engine.catalog.stats
        if (stats_key and stats is not None
                and handle.plan.ops_of_kind("groupby_final")):
            # Close the cardinality feedback loop: observed group counts
            # feed the admission cost bounder's exchange/fold terms.
            stats.note_group_count(stats_key, len(rows))
        admission = metadata.get("admission") or {}
        result = EpochResult(
            handle.qid, epoch, t_k, rows, metadata.get("columns"),
            handle.reporters.pop(epoch, set()), self.clock.now,
            approximate=(admission.get("degradations")
                         if admission.get("approximate") else None))
        handle.results[epoch] = result
        if handle.on_epoch is not None:
            handle.on_epoch(result)
        last = handle.plan.last_epoch
        if last is None or epoch < last:
            self._schedule_close(handle, epoch + 1)
        else:
            self._finish_query(handle)

    def _finish_query(self, handle):
        handle.finished = True
        self.active.pop(handle.qid, None)
        if handle.execution is not None:
            handle.execution.close()

    def stop(self, qid):
        handle = self.active.get(qid)
        if handle is None:
            return
        self._finish_query(handle)
        self._unsent.pop(qid, None)  # stopped before it went out
        if handle.execution is None:  # else it ran only here
            self._broadcast_stop(handle)

    def _broadcast_stop(self, handle):
        """Tell every engine to drop the query; the tombstone it leaves
        lasts until the plan's retire instant."""
        self.dht.broadcast({
            "ctl": "stop",
            "token": "stop|{}".format(handle.qid),
            "qid": handle.qid,
            "until": handle.plan.retire_instant(handle.t0),
        })

    # ------------------------------------------------------------------
    # Inbound messages (wired through the engine)
    # ------------------------------------------------------------------
    def on_result(self, payload):
        handle = self.active.get(payload["qid"])
        if handle is None or handle.finished:
            return
        epoch = payload["epoch"]
        if epoch in handle.results:
            return  # epoch already closed; late rows are dropped
        rows = [tuple(r) for r in payload["rows"]]
        if payload.get("replace"):
            # Streaming refinement: keep only this node's latest batch.
            handle.raw_replace.setdefault(epoch, {})[payload["node"]] = rows
        else:
            handle.raw.setdefault(epoch, []).extend(rows)
        handle.reporters.setdefault(epoch, set()).add(payload["node"])

    def on_progress(self, payload):
        handle = self.active.get(payload["qid"])
        if handle is not None:
            handle.last_progress = self.clock.now

    def on_bloom(self, payload):
        handle = self.active.get(payload["qid"])
        if handle is None:
            return
        epoch = payload["epoch"]
        if epoch <= handle.bloom_done:
            return  # that epoch's merged filters already went out
        key = (epoch, payload["op_id"])
        merged = handle.bloom_partials.setdefault(key, {})
        side = payload["side"]
        incoming = payload["filter"]
        if side in merged:
            merged[side] = merged[side].union(incoming)
        else:
            merged[side] = incoming

    def _schedule_bloom(self, handle, epoch):
        """Arm the merge-and-broadcast step of epoch ``epoch``'s filter
        round-trip, up to the plan's last epoch. Continuous plans re-run
        the round-trip every epoch (a standing execution's bloom stages
        hold per-epoch filter state); their epoch 0 carries no filters,
        its timer only arms epoch 1."""
        plan = handle.plan
        last = plan.last_epoch
        if last is not None and epoch > last:
            return
        offset = plan.metadata["bloom_broadcast_offset"]
        t_k = plan.t_k(handle.t0, epoch)
        self.engine.set_timer(
            max(0.0, t_k + offset - self.clock.now),
            self._broadcast_bloom, handle, epoch,
        )

    def _broadcast_bloom(self, handle, epoch):
        if handle.finished or handle.qid not in self.active:
            return
        fired = [key for key in handle.bloom_partials if key[0] == epoch]
        for key in fired:
            filters = handle.bloom_partials.pop(key)
            self.dht.broadcast({
                "ctl": "bloom",
                "token": "bloom|{}|{}|{}".format(handle.qid, epoch, key[1]),
                "qid": handle.qid,
                "epoch": epoch,
                "op_id": key[1],
                "filters": filters,
            })
        handle.bloom_done = max(handle.bloom_done, epoch)
        self._schedule_bloom(handle, epoch + 1)

    # ------------------------------------------------------------------
    # Recursive quiescence
    # ------------------------------------------------------------------
    def _schedule_quiescence_check(self, handle):
        def check():
            if handle.finished or handle.qid not in self.active:
                return
            now = self.clock.now
            if (now >= handle.t0 + MIN_RUNTIME
                    and now - handle.last_progress >= QUIET_PERIOD):
                # Fixpoint: no novel tuples anywhere for a full quiet
                # period. Close epoch 0 early and tear the query down.
                self._close_epoch(handle, 0, handle.t0)
                self._broadcast_stop(handle)
                return
            self.engine.set_timer(1.0, check)

        self.engine.set_timer(MIN_RUNTIME, check)

    def on_crash(self):
        """The query site died; its queries die with it (soft state)."""
        for handle in self.active.values():
            handle.finished = True
        self.active = {}
        # The flush timer died with the node: a list left here would
        # keep the next submit from arming another.
        self._unsent = {}
