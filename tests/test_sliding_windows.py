"""Paned sliding-window aggregation and overlapping-epoch standing plans.

Three layers of coverage:

* pane arithmetic (``repro.db.window`` helpers);
* a property test driving a paned partial's pane increments into its
  final (``stubs.PanedGroupBy``): for random ``WINDOW/EVERY`` ratios
  and every aggregate (invertible and not), the final's window
  assembly must equal from-scratch window evaluation epoch for epoch;
* integration: paned plans produce the same per-epoch answers as the
  from-scratch ablation while folding fewer rows, and a plan whose
  flush schedule straddles the epoch boundary runs as one
  StandingExecution (no rebuild-per-epoch fallback).
"""

import random

import pytest
from stubs import PanedGroupBy

from repro.core.aggregates import AggSpec
from repro.core.dataflow import StandingExecution
from repro.core.network import PierNetwork
from repro.db.expressions import col
from repro.db.schema import Schema
from repro.db.types import INT, STR
from repro.db.window import pane_index, pane_width, window_pane_range


class TestPaneMath:
    def test_pane_width_is_gcd(self):
        assert pane_width(40.0, 10.0) == 10.0
        assert pane_width(60.0, 25.0) == 5.0
        assert pane_width(4.0, 4.0) == 4.0
        assert pane_width(1.5, 1.0) == 0.5

    def test_pane_width_rejects_degenerate(self):
        assert pane_width(None, 10.0) is None
        assert pane_width(40.0, None) is None
        assert pane_width(0.0, 10.0) is None

    def test_pane_index_right_closed(self):
        # Pane p covers (origin + p*w, origin + (p+1)*w].
        assert pane_index(10.0, 0.0, 10.0) == 0
        assert pane_index(10.1, 0.0, 10.0) == 1
        assert pane_index(0.0, 0.0, 10.0) == -1
        assert pane_index(-3.0, 0.0, 10.0) == -1
        assert pane_index(25.0, 5.0, 10.0) == 1

    def test_window_pane_range(self):
        # WINDOW 40 EVERY 10 -> pane 10, w=4, e=1: epoch k reads the 4
        # panes ending at index k.
        assert window_pane_range(1, 1, 4) == (-3, 1)
        assert window_pane_range(5, 1, 4) == (1, 5)
        # WINDOW 60 EVERY 25 -> pane 5, w=12, e=5.
        assert window_pane_range(2, 5, 12) == (-2, 10)


ALL_AGGS = [
    ("COUNT(*)", None),
    ("COUNT", "v"),
    ("SUM", "v"),
    ("AVG", "v"),
    ("MIN", "v"),
    ("MAX", "v"),
    ("COUNT_DISTINCT", "v"),
]


class Sink:
    def __init__(self):
        self.rows = []
        self.consumers = []

    def push_batch(self, batch, port=0):
        self.rows.extend(batch.rows())

    def reset_batch(self):
        pass

    def open_pane(self, pane):
        pass


SCHEMA = Schema.of(("g", STR), ("v", INT))


def _specs():
    specs = []
    for func, arg in ALL_AGGS:
        name = "COUNT(*)" if arg is None else func
        specs.append(AggSpec(
            "COUNT" if func == "COUNT(*)" else func,
            None if arg is None else col(arg),
            "out_{}".format(len(specs)),
        ))
    return specs


def _reference(rows_by_pane, lo, hi, agg_specs):
    """From-scratch evaluation over the window's raw rows."""
    groups = {}
    for p in range(lo, hi):
        for row in rows_by_pane.get(p, ()):
            gvals = (row[0],)
            states = groups.setdefault(
                gvals, [s.agg.init() for s in agg_specs]
            )
            for i, spec in enumerate(agg_specs):
                arg = None if spec.arg is None else row[1]
                states[i] = spec.agg.add(states[i], arg)
    return {
        gvals: tuple(s.agg.final(state)
                     for s, state in zip(agg_specs, states))
        for gvals, states in groups.items()
    }


class TestPanedPropertyParity:
    """Paned == from-scratch for random geometries, all aggregates."""

    @pytest.mark.parametrize("trial", range(12))
    def test_random_geometry_parity(self, trial):
        rng = random.Random(4200 + trial)
        e = rng.randint(1, 4)  # panes per epoch period
        w = e * rng.randint(2, 5) + rng.randrange(2) * e  # panes per window
        agg_specs = _specs()
        op = PanedGroupBy(agg_specs, SCHEMA, [col("g")], e, w)
        sink = Sink()
        op.wire(sink, 0)

        rows_by_pane = {}
        next_pane = None
        epochs = rng.randint(4, 8)
        for k in range(1, epochs + 1):
            lo, hi = window_pane_range(k, e, w)
            start = lo if next_pane is None else max(lo, next_pane)
            # The scan's contract: emit each pane's rows exactly once.
            for p in range(start, hi):
                rows = [
                    (rng.choice("abc"), rng.choice([None, 1, 2, 3, 7]))
                    for _ in range(rng.randint(0, 4))
                ]
                if rows:
                    rows_by_pane[p] = rows
                    op.open_pane(p)
                    for row in rows:
                        op.push(row)
            next_pane = hi
            op.ctx.epoch = op.ctx.active_epoch = k
            sink.rows = []
            op.flush()
            got = {
                gvals: tuple(s.agg.final(state)
                             for s, state in zip(agg_specs, states))
                for gvals, states in sink.rows
            }
            want = _reference(rows_by_pane, lo, hi, agg_specs)
            assert got == want, (
                "trial {} epoch {} (e={}, w={}): paned {!r} != "
                "from-scratch {!r}".format(trial, k, e, w, got, want)
            )

    def test_straggler_into_merged_pane_rebuilds_window(self):
        # A row can land in a pane *after* the final merged that pane
        # into its invertible running window (an append stamped exactly
        # on a boundary, emitted one epoch late, ships as a second
        # increment of the pane). The version guard must rebuild the
        # running state so later windows include the row and its
        # eventual retirement unmerges exactly what was merged.
        agg_specs = [AggSpec("SUM", col("v"), "total"),
                     AggSpec("COUNT", None, "n")]
        op = PanedGroupBy(agg_specs, SCHEMA, [col("g")], 1, 3)
        sink = Sink()
        op.wire(sink, 0)
        op.open_pane(0)
        op.push(("a", 5))
        expectations = {1: {("a",): (5, 1)}}
        op.ctx.epoch = op.ctx.active_epoch = 1
        op.flush()
        assert dict(sink.rows) == expectations[1]
        op.open_pane(0)  # straggler: pane 0 already merged
        op.push(("a", 2))
        for k, expect in ((2, {("a",): (7, 2)}), (3, {("a",): (7, 2)}),
                          (4, {})):
            op.ctx.epoch = op.ctx.active_epoch = k
            sink.rows = []
            op.flush()
            assert dict(sink.rows) == expect, "epoch {}".format(k)

    def test_groups_vanish_when_last_pane_slides_out(self):
        agg_specs = [AggSpec("SUM", col("v"), "total")]
        op = PanedGroupBy(agg_specs, SCHEMA, [col("g")], 1, 2)
        sink = Sink()
        op.wire(sink, 0)
        op.open_pane(0)
        op.push(("a", 5))
        for k, expect in ((1, {("a",): (5,)}), (2, {("a",): (5,)}), (3, {})):
            op.ctx.epoch = op.ctx.active_epoch = k
            sink.rows = []
            op.flush()
            assert dict(sink.rows) == expect


def install_ticker(net, address, row, period=2.0, table="s"):
    def tick():
        engine = net.node(address).engine
        engine.stream_append(table, row)
        engine.set_timer(period, tick)

    net.node(address).engine.set_timer(0.1, tick)


def run_continuous(sql, seed=77, nodes=8, advance=80.0, options=None,
                   columns=(("v", "FLOAT"),), rows=None):
    net = PierNetwork(nodes=nodes, seed=seed)
    net.create_stream_table("s", list(columns), window=60.0)
    for i, address in enumerate(net.addresses()):
        row = rows[i] if rows is not None else (float(i + 1),)
        install_ticker(net, address, row)
    results = []
    handle = net.submit_sql(sql, on_epoch=results.append, options=options)
    net.advance(advance)
    folded = sum(n.engine.rows_aggregated for n in net.nodes.values())
    return net, handle, results, folded


class TestPanedIntegration:
    SQL = ("SELECT SUM(v) AS total, COUNT(*) AS n FROM s EVERY 10 SECONDS "
           "WINDOW 40 SECONDS LIFETIME 60 SECONDS")

    def test_plan_marked_paned(self):
        net = PierNetwork(nodes=4, seed=1)
        net.create_stream_table("s", [("v", "FLOAT")], window=60.0)
        plan = net.compile_sql(self.SQL)
        assert plan.standing
        assert plan.pane == {"width": 10.0, "every": 1, "window": 4}
        scan = plan.ops_of_kind("scan")[0]
        partial = plan.ops_of_kind("groupby_partial")[0]
        assert scan.params["paned"] == plan.pane
        assert partial.params["paned"] == plan.pane
        assert "[paned]" in plan.describe()
        # The ablation knob and non-overlapping windows opt out.
        assert net.compile_sql(self.SQL, options={"paned": False}).pane is None
        assert net.compile_sql(
            "SELECT COUNT(*) AS n FROM s EVERY 10 SECONDS WINDOW 10 SECONDS "
            "LIFETIME 60 SECONDS"
        ).pane is None

    def test_paned_matches_from_scratch_and_folds_fewer_rows(self):
        outcomes = {}
        for label, options in (("paned", None), ("scratch", {"paned": False})):
            _net, handle, results, folded = run_continuous(
                self.SQL, options=options
            )
            assert handle.plan.standing
            assert (handle.plan.pane is not None) == (label == "paned")
            outcomes[label] = (
                [(r.epoch, [tuple(round(v, 6) for v in row)
                            for row in sorted(r.rows)]) for r in results],
                folded,
            )
        assert outcomes["paned"][0] == outcomes["scratch"][0]
        assert len(outcomes["paned"][0]) >= 5
        # WINDOW/EVERY = 4: the overlap never re-folds, so the paned
        # path must do at least 2x less aggregation work.
        assert outcomes["paned"][1] * 2 <= outcomes["scratch"][1]

    def test_paned_topk_matches_from_scratch(self):
        sql = ("SELECT v FROM s ORDER BY v DESC LIMIT 3 EVERY 10 SECONDS "
               "WINDOW 40 SECONDS LIFETIME 40 SECONDS")
        per_path = []
        for options in (None, {"paned": False}):
            _net, handle, results, folded = run_continuous(
                sql, seed=9, advance=60.0, options=options
            )
            per_path.append([(r.epoch, sorted(r.rows)) for r in results])
        assert per_path[0] == per_path[1]
        assert per_path[0]

    def test_paned_non_invertible_grouped(self):
        sql = ("SELECT tag, MIN(v) AS lo, MAX(v) AS hi FROM s GROUP BY tag "
               "EVERY 10 SECONDS WINDOW 30 SECONDS LIFETIME 40 SECONDS")
        rows = [("even" if i % 2 == 0 else "odd", float(i + 1))
                for i in range(8)]
        per_path = []
        for options in (None, {"paned": False}):
            _net, handle, results, _folded = run_continuous(
                sql, seed=13, advance=60.0, options=options,
                columns=(("tag", "STR"), ("v", "FLOAT")), rows=rows,
            )
            per_path.append([(r.epoch, sorted(r.rows)) for r in results])
        assert per_path[0] == per_path[1]
        for _epoch, got in per_path[0]:
            assert got == [("even", 1.0, 7.0), ("odd", 2.0, 8.0)]


class TestOverlappingEpochs:
    # tree_xfer pushes the final group-by flush to ~8.7s: past one 6s
    # period, within two. The plan must stay standing, overlapping.
    SQL = ("SELECT SUM(v) AS total, COUNT(*) AS n FROM s EVERY 6 SECONDS "
           "WINDOW 6 SECONDS LIFETIME 42 SECONDS")

    def test_runs_as_single_standing_execution(self):
        net, handle, results, _folded = run_continuous(
            self.SQL, seed=31, advance=15.0
        )
        assert handle.plan.standing and handle.plan.epoch_overlap == 2
        engine = net.node(net.addresses()[3]).engine
        record = engine.queries[handle.qid]
        assert isinstance(record.execution, StandingExecution)
        assert record.execution.overlap
        first = record.execution
        net.advance(12.0)
        # Same long-lived execution across boundaries: no rebuild.
        assert engine.queries[handle.qid].execution is first

    def test_two_epochs_live_between_boundaries(self):
        net, handle, _results, _folded = run_continuous(
            self.SQL, seed=31, advance=14.0  # inside epoch 2, epoch 1 open
        )
        engine = net.node(net.addresses()[2]).engine
        execution = engine.queries[handle.qid].execution
        assert sorted(execution._open_epochs) == [1, 2]
        net.advance(6.0)  # epoch 3 opens -> epoch 1 sealed
        assert sorted(execution._open_epochs) == [2, 3]

    def test_overlap_results_match_private_execution(self):
        per_path = []
        for options in (None, {"shared": False}):
            _net, handle, results, _folded = run_continuous(
                self.SQL, seed=321, advance=70.0, options=options
            )
            assert handle.plan.standing
            assert (handle.plan.metadata.get("spine") is not None) == (
                options is None
            )
            per_path.append([
                (r.epoch, r.rows[0][1], round(r.rows[0][0], 6))
                for r in results
            ])
        assert per_path[0] == per_path[1]
        assert len(per_path[0]) >= 6
        # Ground truth: 8 tickers, window 6s, period 2s -> 24 samples.
        for _epoch, count, total in per_path[0]:
            assert count == 24
            assert total == pytest.approx(3 * sum(range(1, 9)))

    def test_overlap_with_panes_matches_private_execution(self):
        sql = ("SELECT SUM(v) AS total, COUNT(*) AS n FROM s "
               "EVERY 6 SECONDS WINDOW 18 SECONDS LIFETIME 42 SECONDS")
        per_path = []
        for options in (None, {"shared": False}):
            _net, handle, results, _folded = run_continuous(
                sql, seed=55, advance=70.0, options=options
            )
            assert handle.plan.epoch_overlap == 2
            assert handle.plan.pane is not None
            assert (handle.plan.metadata.get("spine") is not None) == (
                options is None
            )
            per_path.append([
                (r.epoch, r.rows[0][1], round(r.rows[0][0], 6))
                for r in results
            ])
        assert per_path[0] == per_path[1]
        assert len(per_path[0]) >= 6
