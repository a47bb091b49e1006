"""The query site: dissemination, collection, finishing, lifecycle.

Any node can be a query site. Submitting a query broadcasts its plan
over the overlay once. Plans are soft state like everything else: a
node that the broadcast missed, or that crashed and recovered, gets a
continuous plan back from its ring neighbours' anti-entropy (see
:mod:`repro.core.engine`), not from this site. Result rows stream back
as direct messages tagged with the epoch they belong to; collection is
keyed by that tag, and rows for an already-closed epoch are dropped.
At each epoch's deadline the coordinator applies the *finishing* step
(global ORDER BY / LIMIT over collected rows -- the one thing that
cannot be fully in-network) and hands an :class:`EpochResult` to the
caller.

A one-shot plan whose every scan is a keyed ``get``
(``QueryPlan.at_site``: the planner pinned each scan to one DHT
partition key) is not broadcast at all. The coordinator runs its one
:class:`~repro.core.dataflow.EpochExecution` here, takes its rows
without a wire in between, and closes the answer at the plan's
deadline, which for such a plan is one get round-trip plus the
operators' holds (no dissemination, no result return, no collection).

Stopping a query is one broadcast too; engines tombstone the stopped
qid, and the same anti-entropy carries the tombstone to nodes the stop
missed.

Recursive queries additionally watch progress reports and close early
on quiescence: no node has produced a novel tuple for ``QUIET_PERIOD``
seconds means the fixpoint is reached.
"""

from repro.core.dataflow import EpochExecution, SiteQueryContext

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

    def result(self, epoch=0):
        return self.results.get(epoch)

    def latest_result(self):
        if not self.results:
            return None
        return self.results[max(self.results)]

    def stop(self):
        self.coordinator.stop(self.qid)


class Coordinator:
    def __init__(self, engine):
        self.engine = engine
        self.dht = engine.dht
        self.clock = engine.clock
        self._seq = 0
        self.active = {}  # qid -> QueryHandle
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
                self.engine, plan, qid, 0, t0, self.engine.address,
                ctx=SiteQueryContext(self.engine, plan, qid, t0))
            handle.execution.start()
        else:
            self.dht.broadcast({
                "ctl": "plan",
                # "|0" keeps the token the size it had while plans
                # were re-broadcast, so one-shot traffic is unchanged.
                "token": "plan|{}|0".format(qid),
                "qid": qid,
                "plan": plan,
                "t0": t0,
                "origin": self.engine.address,
            })
        if plan.mode == "continuous":
            self._schedule_close(handle, 1)
        else:
            self._schedule_close(handle, 0)
            if plan.mode == "recursive":
                self._schedule_quiescence_check(handle)
        if plan.metadata.get("bloom_broadcast_offset") is not None:
            self._schedule_bloom(handle, 0)
        return handle

    # ------------------------------------------------------------------
    # Epoch close + finishing
    # ------------------------------------------------------------------
    def _schedule_close(self, handle, epoch):
        plan = handle.plan
        t_k = handle.t0 + (epoch * plan.every if plan.mode == "continuous" else 0)
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
        rows = self._finish(handle.plan, rows)
        metadata = handle.plan.metadata
        if handle.plan.finishing.get("aggregate") is not None:
            # Close the cardinality feedback loop: observed group counts
            # feed the admission cost bounder's exchange/fold terms.
            stats_key = metadata.get("stats_key")
            stats = self.engine.catalog.stats
            if stats_key and stats is not None:
                stats.note_group_count(stats_key, len(rows))
        admission = metadata.get("admission")
        approximate = None
        if admission and admission.get("approximate"):
            approximate = admission.get("degradations")
        result = EpochResult(
            handle.qid, epoch, t_k, rows,
            metadata.get("columns"),
            handle.reporters.pop(epoch, set()),
            self.clock.now,
            approximate=approximate,
        )
        handle.results[epoch] = result
        if handle.on_epoch is not None:
            handle.on_epoch(result)
        plan = handle.plan
        if plan.mode == "continuous":
            next_epoch = epoch + 1
            if plan.lifetime is None or next_epoch * plan.every <= plan.lifetime:
                self._schedule_close(handle, next_epoch)
            else:
                self._finish_query(handle)
        else:
            self._finish_query(handle)

    def _finish(self, plan, rows):
        """Query-site finishing: reconcile group owners, finalize
        aggregates, HAVING, projection, and the global sort/cut that
        in-network operators cannot do."""
        finishing = plan.finishing
        aggregate = finishing.get("aggregate")
        if aggregate is not None:
            rows = self._finish_aggregate(aggregate, rows)
        order_by = finishing.get("order_by")
        if order_by:
            from repro.core.operators.topk import sort_rows

            rows = sort_rows(rows, order_by, finishing["schema"])
        limit = finishing.get("limit")
        if limit is not None:
            rows = rows[:limit]
        return list(rows)

    def _finish_aggregate(self, aggregate, rows):
        """Merge (group_values, states) rows from (possibly duplicate)
        group owners, finalize, filter, and project into SELECT order."""
        agg_specs = aggregate["agg_specs"]
        merged = {}
        for gvals, states in rows:
            held = merged.get(gvals)
            if held is None:
                merged[gvals] = list(states)
            else:
                for i, spec in enumerate(agg_specs):
                    held[i] = spec.agg.merge(held[i], states[i])
        internal_schema = aggregate["internal_schema"]
        having = aggregate["having"]
        having_fn = having.compile(internal_schema) if having is not None else None
        select_fns = [e.compile(internal_schema) for e in aggregate["select_exprs"]]
        out = []
        for gvals, states in merged.items():
            finals = tuple(
                spec.agg.final(state)
                for spec, state in zip(agg_specs, states)
            )
            internal_row = tuple(gvals) + finals
            if having_fn is not None and not having_fn(internal_row):
                continue
            out.append(tuple(fn(internal_row) for fn in select_fns))
        return out

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
        if handle.execution is None:  # else it ran only here
            self.dht.broadcast({
                "ctl": "stop",
                "token": "stop|{}".format(qid),
                "qid": qid,
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
        round-trip. Continuous plans re-run the round-trip every epoch
        (a standing execution's bloom stages hold per-epoch filter
        state)."""
        plan = handle.plan
        if plan.mode == "continuous" and plan.lifetime is not None \
                and epoch * plan.every > plan.lifetime:
            return
        offset = plan.metadata["bloom_broadcast_offset"]
        t_k = handle.t0 + (epoch * plan.every if plan.mode == "continuous" else 0)
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
        if handle.plan.mode == "continuous":
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
                self.dht.broadcast({
                    "ctl": "stop",
                    "token": "stop|{}".format(handle.qid),
                    "qid": handle.qid,
                })
                return
            self.engine.set_timer(1.0, check)

        self.engine.set_timer(MIN_RUNTIME, check)

    def on_crash(self):
        """The query site died; its queries die with it (soft state)."""
        for handle in self.active.values():
            handle.finished = True
        self.active = {}
