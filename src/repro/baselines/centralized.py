"""Centralized aggregation baseline: collect raw rows, aggregate at home.

Runs on the same PIER testbed and transport (so message/byte counters
are comparable) but uses the engine only to ship every node's raw rows
to the query site, where plain Python computes the aggregate. The
contrast with the in-network aggregation tree -- bytes arriving at the
coordinator, total messages, per-node fan-in -- is what the
Ext-B bench reports.
"""

from repro.core.aggregates import aggregate_by_name
from repro.core.logical import LogicalQuery
from repro.core.planner import plan_query
from repro.db.expressions import ColumnRef


class CentralizedAggregation:
    def __init__(self, net):
        self.net = net

    def run(self, table, group_columns, aggregates, node=None, where=None):
        """Collect raw rows and aggregate at the query site.

        ``aggregates`` is a list of (func_name, column_or_None). Returns
        (rows, stats) where rows mirror the distributed query's output
        (group columns then aggregate values) and stats captures the
        network cost of the collection.
        """
        columns = list(group_columns)
        for _func, column in aggregates:
            if column is not None and column not in columns:
                columns.append(column)
        select_items = [(ColumnRef(c), c) for c in columns]
        logical = LogicalQuery([(table, None)], select_items, where=where)
        plan = plan_query(logical, self.net.catalog)

        before = dict(self.net.message_counters())
        result = self.net.run_plan(plan, node=node)
        after = self.net.message_counters()

        rows = self._aggregate(result.rows, columns, group_columns, aggregates)
        stats = {
            "raw_rows_collected": len(result.rows),
            "reporters": len(result.reporters),
            "messages": after.get("messages_sent", 0) - before.get("messages_sent", 0),
            "bytes": after.get("bytes_sent", 0) - before.get("bytes_sent", 0),
        }
        return rows, stats

    def _aggregate(self, raw_rows, columns, group_columns, aggregates):
        index = {c: i for i, c in enumerate(columns)}
        groups = {}
        for row in raw_rows:
            gvals = tuple(row[index[c]] for c in group_columns)
            states = groups.get(gvals)
            if states is None:
                states = [aggregate_by_name(f if col is not None else "COUNT(*)").init()
                          for f, col in aggregates]
                groups[gvals] = states
            for i, (func, col) in enumerate(aggregates):
                agg = aggregate_by_name(func if col is not None else "COUNT(*)")
                value = row[index[col]] if col is not None else None
                states[i] = agg.add(states[i], value)
        out = []
        for gvals, states in sorted(groups.items(), key=lambda kv: repr(kv[0])):
            finals = tuple(
                aggregate_by_name(f if col is not None else "COUNT(*)").final(s)
                for (f, col), s in zip(aggregates, states)
            )
            out.append(gvals + finals)
        return out
