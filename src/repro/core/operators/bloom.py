"""Bloom join support: the rehash-reducing pre-filter stage.

PIER's Bloom join (VLDB 2003): before rehashing R and S for a join,
each node summarizes its local join keys in a Bloom filter; the filters
are OR-ed together per side and redistributed; every node then rehashes
only the tuples whose keys pass the *opposite* side's filter. For
selective joins this cuts the dominant cost -- rehash bandwidth -- at
the price of two small filter round-trips.

A ``bloom_stage`` operator does both halves for one side:

1. buffer arriving rows and fold their keys into a local filter,
2. at its flush deadline, ship the filter to the query site (which
   merges and broadcasts -- the original used designated filter nodes;
   the merge point only changes a constant),
3. on the merged-filters control message, release the buffered rows
   that pass the opposite side's filter.

Continuous plans run the round-trip once per epoch. Every piece of the
exchange -- the local filter, the buffered rows, the released flag --
is per-epoch state in an :class:`~repro.core.dataflow.EpochStateRing`,
and both the outbound ``qbloom`` partial and the inbound merged-filter
control message are tagged with the epoch they belong to. A standing
execution therefore never rebuilds this operator: each ``open_epoch``
simply starts a fresh filter namespace, fed by the standing scan's
delta buffers rather than a fresh scan, and ``seal_epoch`` drops
whatever an epoch's release left behind (unreleased rows die with
their epoch, exactly as they did inside a torn-down execution). A
sliding window (``WINDOW > EVERY``) rebuilds each epoch's filter from
the window's re-scanned rows, since panes stop at the group-by.
"""

from repro.core.batch import RowBatch
from repro.core.dataflow import EpochStateRing, Operator
from repro.core.operators import register_operator
from repro.core.operators.joins import batch_key_fn
from repro.util.bloom import BloomFilter


@register_operator("bloom_stage")
class BloomStage(Operator):
    """Params: ``side`` ("left"/"right"), ``key_exprs``, ``schema``,
    ``capacity``, ``fp_rate``, ``group`` (filter-merge namespace shared
    by both sides of the join)."""

    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        self._batch_key_fn = batch_key_fn(
            spec.params["key_exprs"], spec.params["schema"])
        self.side = spec.params["side"]
        # epoch -> {"filter", "buffered", "released"}
        self._epochs = EpochStateRing(self._fresh_state)

    def _fresh_state(self):
        return {
            "filter": BloomFilter.for_capacity(
                self.spec.params.get("capacity", 1024),
                self.spec.params.get("fp_rate", 0.03),
            ),
            "buffered": [],
            "released": False,
        }

    def push_batch(self, batch, port=0):
        """Buffer+fold: evaluate the join keys as whole columns, then
        extend the buffer and fold the filter in one pass each -- the
        epoch is constant for the batch's duration, so its buffer and
        filter are looked up once per batch.
        """
        if len(batch) == 0:
            return
        state = self._epochs.state(self._active_epoch())
        state["buffered"].extend(batch.rows())
        add = state["filter"].add
        for key in self._batch_key_fn(batch):
            add(key)

    def flush(self):
        """Ship the epoch's local filter to the query site for merging."""
        epoch = self._active_epoch()
        self.ctx.send_to_origin({
            "op": "qbloom",
            "qid": self.ctx.query_id,
            "epoch": epoch,
            # Merged per filter *group*, shared by both sides of a join.
            "op_id": self.spec.params.get("group", self.spec.op_id),
            "side": self.side,
            "filter": self._epochs.state(epoch)["filter"],
        })

    def control(self, payload):
        """Merged filters arrived: release rows passing the opposite side.

        Delivery is scoped to the epoch the control message is tagged
        with, so under a standing execution the release lands in that
        epoch's buffer even when a newer epoch is already accumulating.
        A sealed epoch's state is gone -- its late filters are dropped.
        """
        epoch = self._active_epoch()
        state = self._epochs.peek(epoch)
        if state is None or state["released"]:
            return
        state["released"] = True
        opposite = "right" if self.side == "left" else "left"
        other_filter = payload["filters"].get(opposite)
        rows, state["buffered"] = state["buffered"], []
        if not rows:
            return
        # Release at batch granularity: one columnar key pass over the
        # whole buffer, one membership test per row, one batch out.
        if other_filter is None:
            kept = rows
        else:
            keys = self._batch_key_fn(RowBatch(rows=rows))
            kept = [row for row, key in zip(rows, keys)
                    if key in other_filter]
        if kept:
            self.emit_batch(RowBatch(rows=kept))

    def seal_epoch(self, k):
        self._epochs.seal(k)

    def teardown(self):
        self._epochs.clear()
