"""Multi-query sharing: logical canonicalization, subscription spines,
prefix (scan-stage) sharing across different queries, the one grid
record lifecycle both go through (one boundary timer, one append hook),
and parity with private executions."""

import math

import pytest
from stubs import live_stream_scans

from repro.core.dataflow import StandingExecution
from repro.core.engine import PierEngine
from repro.core.network import PierNetwork
from repro.core.sharing import SpineRecord, StageRecord
from repro.dht.ring import STABILIZE_PERIOD


def install_ticker(net, address, value, period=2.0, table="s"):
    """Append ``value`` every ``period`` seconds at ``address``."""

    def tick():
        engine = net.node(address).engine
        engine.stream_append(table, (value,))
        engine.set_timer(period, tick)

    net.node(address).engine.set_timer(0.1, tick)


def twin_net():
    n = PierNetwork(nodes=8, seed=321)
    n.create_stream_table("s", [("v", "FLOAT")], window=30.0)
    for i, address in enumerate(n.addresses()):
        install_ticker(n, address, float(i + 1))
    return n


@pytest.fixture
def net():
    return twin_net()


def spines(engine):
    return [r for r in engine.records.values() if isinstance(r, SpineRecord)]


def stages(engine):
    return [r for r in engine.records.values() if isinstance(r, StageRecord)]


TAIL = "EVERY 10 SECONDS WINDOW 10 SECONDS LIFETIME 40 SECONDS"

# One query, four surface forms: alias renames, flipped comparisons,
# reordered conjuncts, different output names.
VARIANTS = (
    "SELECT SUM(v) AS total, COUNT(*) AS n FROM s "
    "WHERE v > 2 AND v < 100 " + TAIL,
    "SELECT SUM(t.v) AS sum_v, COUNT(*) AS cnt FROM s t "
    "WHERE t.v < 100 AND t.v > 2 " + TAIL,
    "SELECT SUM(x.v) AS a, COUNT(*) AS b FROM s x "
    "WHERE 2 < x.v AND 100 > x.v " + TAIL,
    "SELECT SUM(v) AS grand_total, COUNT(*) AS how_many FROM s "
    "WHERE 100 > v AND 2 < v " + TAIL,
)


def _rows_match(a, b):
    if len(a) != len(b):
        return False
    for row_a, row_b in zip(a, b):
        for va, vb in zip(row_a, row_b):
            if isinstance(va, float) or isinstance(vb, float):
                if not math.isclose(va, vb, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif va != vb:
                return False
    return True


class TestCanonicalization:
    def test_surface_forms_share_one_signature(self, net):
        sigs = {net.compile_sql(v).metadata["spine"] for v in VARIANTS}
        assert len(sigs) == 1
        assert None not in sigs

    def test_epoch_geometry_splits_the_signature(self, net):
        base = net.compile_sql(VARIANTS[0]).metadata["spine"]
        other_window = net.compile_sql(
            VARIANTS[0].replace("WINDOW 10", "WINDOW 20")
        ).metadata["spine"]
        other_every = net.compile_sql(
            VARIANTS[0].replace("EVERY 10", "EVERY 5")
        ).metadata["spine"]
        assert other_window != base
        assert other_every != base

    def test_lifetime_does_not_split_the_signature(self, net):
        # LIFETIME is per-subscriber (spine fan-out handles it); the
        # in-network body is identical.
        base = net.compile_sql(VARIANTS[0]).metadata["spine"]
        longer = net.compile_sql(
            VARIANTS[0].replace("LIFETIME 40", "LIFETIME 80")
        ).metadata["spine"]
        assert longer == base

    def test_semantic_options_split_the_signature(self, net):
        base = net.compile_sql(VARIANTS[0]).metadata["spine"]
        rehash = net.compile_sql(
            VARIANTS[0], options={"aggregation_tree": False}
        ).metadata["spine"]
        assert rehash != base
        # ``shared: False`` is the opt-out, not a semantic knob: the
        # plan is left unstamped entirely.
        private = net.compile_sql(VARIANTS[0], options={"shared": False})
        assert private.standing
        assert private.metadata.get("spine") is None

    def test_predicate_differences_split_the_signature(self, net):
        base = net.compile_sql(VARIANTS[0]).metadata["spine"]
        tighter = net.compile_sql(
            VARIANTS[0].replace("v > 2", "v > 3")
        ).metadata["spine"]
        assert tighter != base

    def test_sketch_params_are_semantic(self, net):
        sketch = ("SELECT APPROX_COUNT_DISTINCT(v, {}) AS d FROM s "
                  "GROUP BY v " + TAIL)
        p12 = net.compile_sql(sketch.format(12)).metadata["spine"]
        p12_again = net.compile_sql(sketch.format(12)).metadata["spine"]
        p14 = net.compile_sql(sketch.format(14)).metadata["spine"]
        assert p12 == p12_again
        # Different sketch geometry means different in-network state:
        # never share it.
        assert p14 != p12


class TestSpineRuntime:
    def test_fleet_rides_one_spine(self, net):
        site = net.any_address()
        fleet = [
            net.submit_sql(VARIANTS[i % len(VARIANTS)], node=site)
            for i in range(5)
        ]
        assert len({h.plan.metadata["spine"] for h in fleet}) == 1
        net.advance(12.0)  # inside epoch 1
        for address in net.addresses():
            engine = net.node(address).engine
            (srec,) = spines(engine)
            assert isinstance(srec.execution, StandingExecution)
            assert set(srec.subscribers) == {h.qid for h in fleet}
            # One append hook on the stream table, however many queries.
            assert live_stream_scans(engine, "s") == 1
            for handle in fleet:
                assert engine.queries[handle.qid].execution is srec.execution

    def test_fleet_results_match_private_twin(self, net):
        site = net.any_address()
        outs = []
        fleet = []
        for i in range(3):
            results = []
            fleet.append(net.submit_sql(VARIANTS[i], node=site,
                                        on_epoch=results.append))
            outs.append(results)
        private_results = []
        private = net.submit_sql(VARIANTS[0], node=site,
                                 on_epoch=private_results.append,
                                 options={"shared": False})
        assert private.plan.metadata.get("spine") is None
        net.advance(40.0 + private.plan.deadline + 5.0)
        reference = {r.epoch: sorted(r.rows) for r in private_results}
        assert len(reference) >= 3
        for results in outs:
            epochs = {r.epoch: sorted(r.rows) for r in results}
            assert set(epochs) == set(reference)
            for k in reference:
                assert _rows_match(epochs[k], reference[k])

    def test_different_geometry_control_gets_its_own_spine(self, net):
        site = net.any_address()
        fleet_results = []
        fleet = net.submit_sql(VARIANTS[0], node=site,
                               on_epoch=fleet_results.append)
        control_results = []
        control = net.submit_sql(
            VARIANTS[0].replace("WINDOW 10", "WINDOW 20"), node=site,
            on_epoch=control_results.append,
        )
        assert (control.plan.metadata["spine"]
                != fleet.plan.metadata["spine"])
        net.advance(12.0)
        engine = net.node(site).engine
        assert len(spines(engine)) == 2
        assert (engine.queries[fleet.qid].record
                is not engine.queries[control.qid].record)
        # Two geometries, two scans: each hooks the table itself.
        assert live_stream_scans(engine, "s") == 2
        net.advance(40.0 + control.plan.deadline + 5.0 - 12.0)
        assert len({r.epoch for r in fleet_results}) >= 3
        assert len({r.epoch for r in control_results}) >= 3

    def test_stop_peels_subscribers_then_closes_the_spine(self, net):
        site = net.any_address()
        outs = []
        fleet = []
        for i in range(3):
            results = []
            fleet.append(net.submit_sql(VARIANTS[i], node=site,
                                        on_epoch=results.append))
            outs.append(results)
        net.advance(12.0)
        engine = net.node(site).engine
        (srec,) = spines(engine)
        assert len(srec.subscribers) == 3

        # Two members leave mid-flight: the spine survives for the
        # remaining co-tenant and keeps answering.
        fleet[0].stop()
        fleet[1].stop()
        net.advance(2.0)
        (srec,) = spines(engine)
        assert set(srec.subscribers) == {fleet[2].qid}
        assert live_stream_scans(engine, "s") == 1
        epochs_before = {r.epoch for r in outs[2]}
        net.advance(10.0)
        assert {r.epoch for r in outs[2]} - epochs_before, (
            "surviving subscriber stopped receiving epochs"
        )

        # The last member leaving closes the execution and unhooks the
        # table on every node.
        fleet[2].stop()
        net.advance(2.0)
        for address in net.addresses():
            eng = net.node(address).engine
            assert not eng.records
            assert live_stream_scans(eng, "s") == 0

    def test_staggered_submission_joins_by_epoch_phase(self, net):
        # A near-duplicate submitted whole periods later lands on the
        # same grid phase, so it joins the existing spine at an offset;
        # one submitted off-phase must get its own spine.
        site = net.any_address()
        first = net.submit_sql(VARIANTS[0], node=site)
        net.advance(10.0)  # exactly one period: same phase
        second = net.submit_sql(VARIANTS[1], node=site)
        engine = net.node(site).engine
        assert engine.queries[first.qid].record is engine.queries[second.qid].record
        sub = engine.queries[second.qid].record
        assert sub.subscribers[second.qid].offset == 1
        assert sub.subscribers[first.qid].offset == 0
        net.advance(3.3)  # mid-period: different phase
        third = net.submit_sql(VARIANTS[2], node=site)
        assert (engine.queries[third.qid].record
                is not engine.queries[first.qid].record)
        assert len(spines(engine)) == 2


def predicate_sql(threshold):
    """Same scan + geometry as VARIANTS, different WHERE predicate:
    never spine-shareable with the others, always stage-shareable."""
    return ("SELECT SUM(v) AS total, COUNT(*) AS n FROM s "
            "WHERE v > {} ".format(threshold) + TAIL)


PRIVATE = {"shared": False}  # the per-query opt-out: the reference leg


class TestPrefixSignatures:
    """The prefix signature hashes only the common SUBPLAN -- the scan
    and its epoch geometry -- so plans that cannot share a whole spine
    can still share the scan stage. It must be exactly as coarse as
    the stage is reusable: blind to predicates and select lists,
    split by anything that changes what the scan produces."""

    def test_surface_forms_share_one_prefix(self, net):
        sigs = {net.compile_sql(v).metadata["prefix"] for v in VARIANTS}
        assert len(sigs) == 1
        assert None not in sigs

    def test_predicates_do_not_split_the_prefix(self, net):
        base = net.compile_sql(VARIANTS[0])
        tighter = net.compile_sql(VARIANTS[0].replace("v > 2", "v > 3"))
        assert base.metadata["prefix"] == tighter.metadata["prefix"]
        # ...even though the whole-plan signatures rightly differ.
        assert base.metadata["spine"] != tighter.metadata["spine"]

    def test_select_list_does_not_split_the_prefix(self, net):
        base = net.compile_sql(VARIANTS[0])
        other = net.compile_sql(
            "SELECT MAX(v) AS top FROM s WHERE v > 7 " + TAIL
        )
        assert base.metadata["prefix"] == other.metadata["prefix"]
        assert base.metadata["spine"] != other.metadata["spine"]

    def test_epoch_geometry_splits_the_prefix(self, net):
        base = net.compile_sql(VARIANTS[0]).metadata["prefix"]
        other_window = net.compile_sql(
            VARIANTS[0].replace("WINDOW 10", "WINDOW 20")
        ).metadata["prefix"]
        other_every = net.compile_sql(
            VARIANTS[0].replace("EVERY 10", "EVERY 5")
        ).metadata["prefix"]
        assert other_window != base
        assert other_every != base

    def test_scanned_table_splits_the_prefix(self, net):
        net.create_stream_table("s2", [("v", "FLOAT")], window=30.0)
        base = net.compile_sql(VARIANTS[0]).metadata["prefix"]
        other = net.compile_sql(
            "SELECT SUM(v) AS total, COUNT(*) AS n FROM s2 "
            "WHERE v > 2 AND v < 100 " + TAIL
        ).metadata["prefix"]
        assert other != base

    def test_opt_out_unstamps_the_prefix(self, net):
        private = net.compile_sql(VARIANTS[0], options={"shared": False})
        assert private.standing
        assert private.metadata.get("prefix") is None

    def test_lifetime_does_not_split_the_prefix(self, net):
        base = net.compile_sql(VARIANTS[0]).metadata["prefix"]
        longer = net.compile_sql(
            VARIANTS[0].replace("LIFETIME 40", "LIFETIME 80")
        ).metadata["prefix"]
        assert longer == base


class TestPrefixStageRuntime:
    def test_different_predicate_fleet_rides_one_stage(self, net):
        site = net.any_address()
        fleet = [
            net.submit_sql(predicate_sql(1.5 + i), node=site)
            for i in range(4)
        ]
        # Four different predicates: four spines, ONE prefix.
        assert len({h.plan.metadata["spine"] for h in fleet}) == 4
        assert len({h.plan.metadata["prefix"] for h in fleet}) == 1
        net.advance(12.0)  # inside epoch 1
        for address in net.addresses():
            engine = net.node(address).engine
            assert len(spines(engine)) == 4
            (prec,) = stages(engine)
            assert isinstance(prec.execution, StandingExecution)
            # Every spine is enrolled as a stage member, by reference...
            assert prec.members() == spines(engine)
            # ...runs its own (passively scanned) execution...
            for srec in spines(engine):
                assert srec.stage is prec
                assert srec.execution is not None
                assert srec.execution is not prec.execution
                assert srec.execution.ctx.prefix_fed
            # ...and the table carries ONE append hook: the stage's.
            assert live_stream_scans(engine, "s") == 1

    def test_fleet_results_match_ablation_twin(self):
        thresholds = (1.5, 2.5, 3.5, 4.5)
        legs = []
        for shared in (True, False):
            n = twin_net()
            site = n.any_address()
            outs = []
            for thr in thresholds:
                results = []
                n.submit_sql(predicate_sql(thr), node=site,
                             on_epoch=results.append,
                             options=None if shared else PRIVATE)
                outs.append(results)
            deadline = n.compile_sql(predicate_sql(0)).deadline
            n.advance(12.0)  # mid-flight: the stage (only) exists when shared
            assert bool(stages(n.node(site).engine)) == shared
            n.advance(40.0 + deadline + 5.0 - 12.0)
            legs.append([
                {r.epoch: sorted(r.rows) for r in results}
                for results in outs
            ])
        staged, private = legs
        for i in range(len(thresholds)):
            assert set(staged[i]) == set(private[i])
            assert len(staged[i]) >= 3
            for k in private[i]:
                assert _rows_match(staged[i][k], private[i][k])

    def test_stop_peels_members_then_closes_the_stage(self, net):
        site = net.any_address()
        outs = []
        fleet = []
        for i in range(3):
            results = []
            fleet.append(net.submit_sql(predicate_sql(1.5 + i), node=site,
                                        on_epoch=results.append))
            outs.append(results)
        net.advance(12.0)
        engine = net.node(site).engine
        (prec,) = stages(engine)
        assert len(prec.subscribers) == 3

        # Two members leave mid-flight: their spines close and leave
        # the stage; the survivor keeps being fed.
        fleet[0].stop()
        fleet[1].stop()
        net.advance(2.0)
        (prec,) = stages(engine)
        assert len(prec.subscribers) == 1
        assert live_stream_scans(engine, "s") == 1
        epochs_before = {r.epoch for r in outs[2]}
        net.advance(10.0)
        assert {r.epoch for r in outs[2]} - epochs_before, (
            "surviving stage member stopped receiving epochs"
        )

        # The last member leaving tears the stage down everywhere.
        fleet[2].stop()
        net.advance(2.0)
        for address in net.addresses():
            eng = net.node(address).engine
            assert not eng.records
            assert live_stream_scans(eng, "s") == 0

    def test_staggered_join_lands_on_the_running_stage(self, net):
        site = net.any_address()
        first_results = []
        net.submit_sql(predicate_sql(1.5), node=site,
                       on_epoch=first_results.append)
        net.advance(10.0)  # one whole period: same grid phase
        second_results = []
        net.submit_sql(predicate_sql(4.5), node=site,
                       on_epoch=second_results.append)
        engine = net.node(site).engine
        assert len(spines(engine)) == 2
        assert len(stages(engine)) == 1
        net.advance(3.3)  # mid-period: different phase
        net.submit_sql(predicate_sql(6.5), node=site)
        assert len(stages(engine)) == 2, (
            "off-phase query must get its own stage grid"
        )
        net.advance(45.0)
        assert len({r.epoch for r in first_results}) >= 3
        assert len({r.epoch for r in second_results}) >= 3

    def test_ablation_runs_every_query_private(self, net):
        site = net.any_address()
        results = []
        handle = net.submit_sql(predicate_sql(1.5), node=site,
                                on_epoch=results.append, options=PRIVATE)
        # The opt-out leaves the plan unstamped: nothing to share by.
        assert handle.plan.metadata.get("prefix") is None
        net.advance(20.0 + handle.plan.deadline + 2.0)
        for address in net.addresses():
            engine = net.node(address).engine
            (record,) = engine.records.values()  # its own, keyed by qid
            assert record is engine.queries[handle.qid].record
            assert not spines(engine) and not stages(engine)
        assert {r.epoch for r in results} >= {1, 2}


def life_sql(threshold, lifetime, window=10):
    return ("SELECT SUM(v) AS total, COUNT(*) AS n FROM s WHERE v > {} "
            "EVERY 10 SECONDS WINDOW {} SECONDS LIFETIME {} SECONDS"
            .format(threshold, window, lifetime))


class TestOneLifecycle:
    """Spines and stages are one grid record with one lifecycle; a
    stage advances its own members, so a node runs ONE boundary timer
    per stage and no wave ever waits for its member to catch up."""

    def test_stage_owns_the_one_boundary_timer(self, net, monkeypatch):
        site = net.any_address()
        for i in range(4):
            net.submit_sql(predicate_sql(1.5 + i), node=site)
        net.advance(12.0)  # inside epoch 1
        for address in net.addresses():
            (stage,) = stages(net.node(address).engine)
            assert len(stage.members()) == 4
            # One pending boundary timer on the node: the stage's.
            assert not stage.next_timer.cancelled
            assert [m.next_timer for m in stage.members()] == [None] * 4

        log = []  # (clock event, what, execution or record, epoch)

        def fired():
            return net.clock.events_fired

        real_advance = StandingExecution.advance_epoch
        real_wave = StandingExecution.deliver_scan
        real_timer = PierEngine.set_timer

        def advance(execution, k, t_k):
            log.append((fired(), "advance", execution, k))
            real_advance(execution, k, t_k)

        def wave(execution, rows, k, pane=None):
            log.append((fired(), "wave", execution, k))
            real_wave(execution, rows, k, pane)

        def set_timer(engine, delay, callback, *args):
            if callback == engine._on_boundary:
                log.append((fired(), "timer") + args)
            return real_timer(engine, delay, callback, *args)

        monkeypatch.setattr(StandingExecution, "advance_epoch", advance)
        monkeypatch.setattr(StandingExecution, "deliver_scan", wave)
        monkeypatch.setattr(PierEngine, "set_timer", set_timer)
        net.advance(10.0)  # across the epoch-2 boundary
        for address in net.addresses():
            (stage,) = stages(net.node(address).engine)
            members = [m.execution for m in stage.members()]
            mine = [e for e in log
                    if e[2] in members + [stage, stage.execution]]
            # Members open epoch 2 in join order, then the stage, whose
            # scan hands every member its wave; the node's one timer is
            # re-armed -- all inside one clock event.
            assert [e[1:] for e in mine] == (
                [("advance", m, 2) for m in members]
                + [("advance", stage.execution, 2)]
                + [("wave", m, 2) for m in members]
                + [("timer", stage, 3)]
            )
            assert len({e[0] for e in mine}) == 1

    @pytest.mark.parametrize("window", [10, 30])  # unpaned, paned
    @pytest.mark.parametrize("join_at", [30.0, 40.0])
    def test_held_member_is_skipped_and_rejoined_exactly(self, net, window,
                                                         join_at):
        site = net.any_address()
        short = life_sql(1.5, 20, window)
        net.submit_sql(short, node=site)
        long_results = []
        net.submit_sql(life_sql(2.5, 80, window), node=site,
                       on_epoch=long_results.append)
        net.advance(25.0)  # epoch 2: the short query's last
        engine = net.node(site).engine
        held, running = spines(engine)
        (stage,) = stages(engine)
        assert held.on_grid and running.on_grid
        net.advance(join_at - 25.0)  # epoch 3 or 4
        # Past its last needed epoch the member sits out the stage's
        # advances while its co-tenant runs on...
        assert running.on_grid and stage.on_grid
        assert running.execution.current_epoch == int(join_at // 10)
        # ...until its subscriber retires (lifetime + deadline + slack)
        # and the record goes, between the two join instants.
        if join_at == 30.0:
            assert spines(engine) == [held, running]
            assert not held.on_grid
            assert held.execution.current_epoch == 2
        else:
            assert spines(engine) == [running]
        # A twin joins afterwards, beside a private reference.
        twin_results, private_results = [], []
        net.submit_sql(short, node=site, on_epoch=twin_results.append)
        private = net.submit_sql(short, node=site, options=PRIVATE,
                                 on_epoch=private_results.append)
        net.advance(20.0 + private.plan.deadline + 5.0)
        twin = {r.epoch: sorted(r.rows) for r in twin_results}
        reference = {r.epoch: sorted(r.rows) for r in private_results}
        assert set(twin) == set(reference) == {1, 2}
        for k in reference:
            assert _rows_match(twin[k], reference[k])
        assert {r.epoch for r in long_results} >= set(range(1, 6))

    def test_last_member_out_leaves_nothing_behind(self, net):
        site = net.any_address()
        outs = []
        fleet = []
        for i in range(3):
            results = []
            fleet.append(net.submit_sql(predicate_sql(1.5 + i), node=site,
                                        on_epoch=results.append))
            outs.append(results)
        net.advance(12.0)
        timers = {}
        for address in net.addresses():
            (stage,) = stages(net.node(address).engine)
            timers[address] = stage.next_timer
        for handle in fleet:
            handle.stop()
        net.advance(2.0)
        seen = [len(results) for results in outs]
        for address in net.addresses():
            engine = net.node(address).engine
            assert not engine.records
            assert timers[address].cancelled
            assert live_stream_scans(engine, "s") == 0
        net.advance(25.0)
        assert [len(results) for results in outs] == seen

    def test_crash_and_recover_reforms_one_stage(self, net):
        site = net.any_address()
        for i in range(3):
            net.submit_sql(life_sql(1.5 + i, 200), node=site)
        victim = [a for a in net.addresses() if a != site][0]
        net.advance(15.0)
        before = {m.key for m in stages(net.node(victim).engine)[0].members()}
        net.crash_node(victim)
        assert not net.node(victim).engine.records
        net.advance(10.0)
        net.recover_node(victim)
        install_ticker(net, victim, 9.0)
        # Its first probe brings every plan back from its successor;
        # the next boundary then runs the re-formed stage.
        net.advance(STABILIZE_PERIOD + 10.0)
        engine = net.node(victim).engine
        (stage,) = stages(engine)
        assert {m.key for m in stage.members()} == before
        assert len(before) == 3
        assert spines(engine) == stage.members()
        assert all(m.on_grid and m.next_timer is None
                   for m in stage.members())
        assert stage.on_grid and not stage.next_timer.cancelled
        assert live_stream_scans(engine, "s") == 1



def rows_sql(threshold, window=10):
    """A stage member whose tail keeps rows: no aggregate."""
    return ("SELECT v FROM s WHERE v > {} EVERY 10 SECONDS WINDOW {} "
            "SECONDS LIFETIME 40 SECONDS".format(threshold, window))


class TestOneBatchPerWave:
    """A stage wave is one RowBatch that every member reads in place:
    shared, never copied per member, and never changed by a reader."""

    @staticmethod
    def record_waves(monkeypatch):
        waves = []  # (address, epoch, pane, execution, batch, rows then)
        real_wave = StandingExecution.deliver_scan

        def wave(execution, batch, k, pane=None):
            waves.append((execution.engine.address, k, pane, execution,
                          batch, list(batch.rows())))
            real_wave(execution, batch, k, pane)

        monkeypatch.setattr(StandingExecution, "deliver_scan", wave)
        return waves

    @pytest.mark.parametrize("window", [10, 30])  # unpaned, paned
    def test_every_member_reads_the_same_batch(self, net, monkeypatch,
                                               window):
        site = net.any_address()
        for i in range(4):
            net.submit_sql(life_sql(1.5 + i, 40, window), node=site)
        waves = self.record_waves(monkeypatch)
        net.advance(35.0)
        by_wave = {}
        for address, k, pane, execution, batch, rows in waves:
            by_wave.setdefault((address, k, pane), []).append(
                (execution, batch, rows))
        assert len({key[1] for key in by_wave}) >= 3
        for fanned in by_wave.values():
            (batch,) = {id(b) for _e, b, _r in fanned}
            assert len({id(e) for e, _b, _r in fanned}) == 4
            execution, batch, rows = fanned[0]
            # The fan-out left the batch as the stage emitted it, and the
            # columns the members' filters built agree with its rows.
            assert batch.rows() == rows
            assert batch.columns() == [list(c) for c in zip(*rows)]

    def test_joiners_share_one_backfill_batch_per_pane(self, net,
                                                       monkeypatch):
        site = net.any_address()
        first = net.submit_sql(life_sql(1.5, 80, 30), node=site)
        net.advance(20.0)  # two whole periods: the same grid phase
        waves = self.record_waves(monkeypatch)
        joiners = [net.submit_sql(life_sql(2.5 + i, 80, 30), node=site)
                   for i in range(3)]
        net.advance(5.0)  # adopted mid-epoch, before the next boundary
        # Nobody reads a joiner's submission-instant epoch, so nothing
        # is built or backfilled for it: the stage's next boundary
        # builds the joiners, and its open backfills them.
        assert not waves
        for address in net.addresses():
            engine = net.node(address).engine
            for handle in joiners:
                assert engine.queries[handle.qid].execution is None
        net.advance(10.0)  # across the joiners' first boundary
        for address in net.addresses():
            engine = net.node(address).engine
            (stage,) = stages(engine)
            k = stage.execution.current_epoch
            got = {}
            for where, wave_k, pane, execution, batch, _rows in waves:
                if where == address:
                    assert wave_k == k
                    got.setdefault(execution, []).append((pane, batch))
            running = engine.queries[first.qid].execution
            joined = [engine.queries[h.qid].execution for h in joiners]
            assert set(got) == set(joined) | {running}
            # The epoch's own wave reaches every member; what only the
            # joiners got is backfill, one batch per retained pane.
            own = {id(b) for _p, b in got[running]}
            panes = [[(p, id(b)) for p, b in got[e] if id(b) not in own]
                     for e in joined]
            assert panes[0] and panes == [panes[0]] * 3
            assert len({p for p, _b in panes[0]}) == len(panes[0])

    @pytest.mark.parametrize("window", [10, 30])
    def test_row_keeping_member_answers_like_its_private_twin(self, window):
        legs = {}
        n = twin_net()
        site = n.any_address()
        for name, threshold, options in [("staged", 2.5, None),
                                         ("co-tenant", 4.5, None),
                                         ("private", 2.5, PRIVATE)]:
            results = legs[name] = []
            n.submit_sql(rows_sql(threshold, window), node=site,
                         on_epoch=results.append, options=options)
        deadline = n.compile_sql(rows_sql(0, window)).deadline
        n.advance(12.0)
        (stage,) = stages(n.node(site).engine)
        assert len(stage.members()) == 2
        n.advance(40.0 + deadline + 5.0 - 12.0)
        staged = {r.epoch: sorted(r.rows) for r in legs["staged"]}
        private = {r.epoch: sorted(r.rows) for r in legs["private"]}
        assert len(private) >= 3 and all(private.values())
        assert staged == private

    @pytest.mark.parametrize("window", [10, 30])  # unpaned, paned
    def test_members_submitted_off_grid_epoch_zero_match_private(self,
                                                                 window):
        # Submitted at t0 >= every, the members sit at grid offset 2:
        # their first epoch is grid epoch 3, where the stage first
        # builds, and its initial emission alone seeds their windows.
        legs = {}
        n = twin_net()
        n.advance(25.0)
        site = n.any_address()
        for name, threshold, options in [("staged", 2.5, None),
                                         ("co-tenant", 4.5, None),
                                         ("private", 2.5, PRIVATE)]:
            results = legs[name] = []
            handle = n.submit_sql(life_sql(threshold, 30, window), node=site,
                                  on_epoch=results.append, options=options)
            assert n.node(site).engine.queries[handle.qid].offset == (
                0 if options else 2)
        (stage,) = stages(n.node(site).engine)
        assert stage.execution is None and stage.first_epoch() == 3
        n.advance(30.0 + handle.plan.deadline + 5.0)
        private = {r.epoch: sorted(r.rows) for r in legs["private"]}
        assert set(private) == {1, 2, 3} and private[1]
        for name in ("staged", "co-tenant"):
            assert {r.epoch for r in legs[name]} == {1, 2, 3}
        staged = {r.epoch: sorted(r.rows) for r in legs["staged"]}
        assert _rows_match(staged[1], private[1])
        assert staged == private
