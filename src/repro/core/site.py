"""The query site's fragment on the plan's own operators: the planner's
``QueryPlan.site_specs``, ``groupby_final`` (finalizing) -> ``select``
(HAVING) -> ``project`` -> ``topk``, each only when the query needs it."""

from repro.core.batch import RowBatch
from repro.core.dataflow import LocalQueryContext
from repro.core.operators import create_operator


class SiteStage:
    """One query's site fragment, built once. The stage is its operators'
    context and engine (an epoch scope; effort counters that count
    nothing, as the site's fold is not owner work) and their sink."""

    def __init__(self, plan):
        self.engine = self
        self.active_epoch = None
        self.ops = [create_operator(self, spec) for spec in plan.site_specs]
        for producer, consumer in zip(self.ops, self.ops[1:] + [self]):
            producer.wire(consumer, 0)
        self._out = []

    in_epoch = LocalQueryContext.in_epoch

    def note_rows_merged(self, n):
        pass

    note_rows_aggregated = note_rows_merged

    def run(self, epoch, rows):
        """Push epoch ``epoch``'s ``rows`` through the chain, flush and
        seal every op (no state outlives the close): the last one's rows."""
        if not self.ops:
            return rows
        with self.in_epoch(epoch):
            self.ops[0].push_batch(RowBatch(rows=rows))
            for op in self.ops:
                op.flush()
        for op in self.ops:
            op.seal_epoch(epoch)
        out, self._out = self._out, []
        return out

    def push_batch(self, batch, port=0):
        self._out.extend(batch.rows())

    def reset_batch(self):
        self._out = []
