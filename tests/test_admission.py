"""Admission control: the stats catalog, the cost bounder,
the sketch -> widen -> sample degradation ladder, refusal, labeled
approximate answers, and deterministic scan sampling."""

import pytest

from repro.core.admission import (
    AdmissionError,
    AdmissionPolicy,
    bound_query_cost,
)
from repro.core.catalog import StatsCatalog, query_stats_key
from repro.core.network import PierConfig, PierNetwork
from repro.core.sql import parse_query
from repro.db.catalog import Catalog
from repro.util.serde import wire_size


# ----------------------------------------------------------------------
# StatsCatalog
# ----------------------------------------------------------------------
class TestStatsCatalog:
    def test_rate_converges_on_steady_stream(self):
        stats = StatsCatalog()
        t = 0.0
        while t < 60.0:  # 10 rows/sec for a minute
            stats.note_append("s", 48, t)
            t += 0.1
        assert stats.arrival_rate("s", now=60.0) == pytest.approx(10.0, rel=0.05)

    def test_cold_partial_bucket_estimates_instead_of_zero(self):
        stats = StatsCatalog()
        for i in range(10):
            stats.note_append("s", 48, i * 0.1)
        # Mid-first-bucket: the partial bucket is the best effort.
        assert stats.arrival_rate("s", now=1.0) > 0.0

    def test_silent_gap_decays_the_rate(self):
        stats = StatsCatalog()
        t = 0.0
        while t < 20.0:
            stats.note_append("s", 48, t)
            t += 0.1
        busy = stats.arrival_rate("s", now=20.0)
        # A long silence folds zero-rate buckets into the EWMA.
        quiet = stats.arrival_rate("s", now=120.0)
        assert quiet < busy / 4

    def test_unknown_table_reads_zero_and_defaults(self):
        stats = StatsCatalog()
        assert stats.arrival_rate("nope") == 0.0
        assert stats.avg_row_bytes("nope", default=48.0) == 48.0

    def test_seed_declares_rates_up_front(self):
        stats = StatsCatalog()
        stats.seed("s", rate=250.0, row_bytes=64.0)
        assert stats.arrival_rate("s") == 250.0
        assert stats.avg_row_bytes("s") == 64.0

    def test_row_bytes_is_an_ewma(self):
        stats = StatsCatalog()
        stats.note_append("s", 100, 0.0)
        for i in range(50):
            stats.note_append("s", 50, 0.1 * i)
        assert stats.avg_row_bytes("s") == pytest.approx(50.0, abs=1.0)

    def test_group_count_feedback_smooths(self):
        stats = StatsCatalog()
        stats.note_group_count("s|k", 100)
        assert stats.group_cardinality("s|k") == 100.0
        stats.note_group_count("s|k", 200)
        assert stats.group_cardinality("s|k") == 150.0
        assert stats.group_cardinality("other", default=7) == 7


# ----------------------------------------------------------------------
# Cost bounder
# ----------------------------------------------------------------------
CONT = " EVERY 2 SECONDS LIFETIME 20 SECONDS"


def stats_catalog(rate=100.0, row_bytes=64.0, groups=None, stats_key=None):
    """A schema catalog carrying stats for stream ``s``; ``rate=None``
    leaves the stats cold."""
    catalog = Catalog()
    catalog.stats = StatsCatalog()
    if rate is not None:
        catalog.stats.seed("s", rate=rate, row_bytes=row_bytes)
    if groups is not None:
        catalog.stats.seed_groups(stats_key, groups)
    return catalog


class TestCostBounder:
    def test_oneshot_and_statsless_catalogs_are_unbounded(self):
        lq = parse_query("SELECT COUNT(*) AS n FROM s")
        assert bound_query_cost(lq, stats_catalog()) is None
        lq = parse_query("SELECT COUNT(*) AS n FROM s" + CONT)
        assert bound_query_cost(lq, Catalog()) is None

    def test_cold_catalog_bounds_to_zero(self):
        lq = parse_query("SELECT COUNT(*) AS n FROM s" + CONT)
        bound = bound_query_cost(lq, stats_catalog(rate=None))
        assert bound is not None and bound.units_per_sec() == 0.0

    def test_scan_term_is_rate_times_every(self):
        lq = parse_query("SELECT COUNT(*) AS n FROM s" + CONT)
        bound = bound_query_cost(lq, stats_catalog(rate=100.0))
        assert bound.rows_scanned == pytest.approx(200.0)  # 100/s * 2s

    def test_known_group_cardinality_caps_exchange_and_fold(self):
        sql = "SELECT k, COUNT(*) AS n FROM s GROUP BY k" + CONT
        lq = parse_query(sql)
        unbounded = bound_query_cost(lq, stats_catalog())
        capped = bound_query_cost(lq, stats_catalog(
            groups=2, stats_key=query_stats_key(lq)))
        assert capped.exchange_rows < unbounded.exchange_rows
        assert capped.fold_groups < unbounded.fold_groups
        assert capped.units_per_sec() < unbounded.units_per_sec()

    def test_exact_distinct_costs_more_than_sketch(self):
        exact = parse_query(
            "SELECT COUNT(DISTINCT v) AS d FROM s" + CONT)
        sketch = parse_query(
            "SELECT APPROX_COUNT_DISTINCT(v) AS d FROM s" + CONT)
        b_exact = bound_query_cost(exact, stats_catalog())
        b_sketch = bound_query_cost(sketch, stats_catalog())
        assert b_exact.exchange_bytes > 4 * b_sketch.exchange_bytes

    def test_sampling_sheds_exchange_but_not_scan(self):
        lq = parse_query("SELECT COUNT(*) AS n FROM s" + CONT)
        full = bound_query_cost(lq, stats_catalog())
        lq.options["sample_rate"] = 0.1
        sampled = bound_query_cost(lq, stats_catalog())
        assert sampled.rows_scanned == full.rows_scanned  # still examined
        assert sampled.exchange_rows == pytest.approx(
            0.1 * full.exchange_rows)

    def test_widening_every_amortizes_group_bound_terms(self):
        sql = "SELECT k, COUNT(*) AS n FROM s GROUP BY k" + CONT
        lq = parse_query(sql)
        catalog = stats_catalog(groups=10, stats_key=query_stats_key(lq))
        narrow = bound_query_cost(lq, catalog).units_per_sec()
        lq.every *= 4
        wide = bound_query_cost(lq, catalog).units_per_sec()
        assert wide < narrow


# ----------------------------------------------------------------------
# The degradation ladder
# ----------------------------------------------------------------------
class TestAdmissionLadder:
    def test_within_budget_admits_untouched(self):
        lq = parse_query("SELECT COUNT(*) AS n FROM s" + CONT)
        policy = AdmissionPolicy(budget_units=10_000.0)
        decision = policy.admit(lq, stats_catalog())
        assert decision.admitted and decision.degradations == []
        assert not decision.approximate

    def test_no_budget_admits_everything(self):
        lq = parse_query("SELECT COUNT(DISTINCT v) AS d FROM s" + CONT)
        decision = AdmissionPolicy(budget_units=None).admit(lq, stats_catalog())
        assert decision.admitted and decision.degradations == []
        assert lq.select_items[0][0].func_name == "COUNT_DISTINCT"

    def test_sketch_swap_is_the_first_rung(self):
        sql = ("SELECT k, COUNT(DISTINCT v) AS d FROM s GROUP BY k" + CONT)
        lq = parse_query(sql)
        catalog = stats_catalog(groups=10, stats_key=query_stats_key(lq))
        over = bound_query_cost(lq, catalog).units_per_sec()
        policy = AdmissionPolicy(budget_units=over * 0.5)
        decision = policy.admit(lq, catalog)
        assert decision.admitted
        swapped = [item for item, _n in lq.select_items
                   if getattr(item, "func_name", None)
                   == "APPROX_COUNT_DISTINCT"]
        assert swapped
        (deg,) = [d for d in decision.degradations if d["kind"] == "sketch"]
        # HLL default precision 10 -> ~3.25% documented standard error.
        assert deg["relative_error"] == pytest.approx(0.0325, abs=0.001)
        assert decision.approximate
        assert lq.every == 2.0  # widening never reached

    def test_widen_every_amortizes_without_approximation(self):
        sql = "SELECT k, COUNT(*) AS n FROM s GROUP BY k" + CONT
        lq = parse_query(sql)
        catalog = stats_catalog(groups=10, stats_key=query_stats_key(lq))
        over = bound_query_cost(lq, catalog).units_per_sec()
        scan_floor = 100.0  # the rate term that widening cannot touch
        budget = scan_floor + (over - scan_floor) / 3.0
        decision = AdmissionPolicy(budget_units=budget).admit(lq, catalog)
        assert decision.admitted
        (deg,) = decision.degradations
        assert deg["kind"] == "widen_every" and deg["factor"] in (2.0, 4.0)
        assert lq.every == 2.0 * deg["factor"]
        assert not decision.approximate  # exact, just less frequent

    def test_widening_rolls_back_for_scan_bound_queries(self):
        # No GROUP BY cardinality cap: every term scales with EVERY, so
        # widening buys nothing and must be undone before sampling.
        lq = parse_query("SELECT COUNT(*) AS n FROM s" + CONT)
        catalog = stats_catalog(rate=100.0)
        decision = AdmissionPolicy(budget_units=200.0).admit(lq, catalog)
        assert decision.admitted
        assert lq.every == 2.0  # rollback left the cadence alone
        kinds = [d["kind"] for d in decision.degradations]
        assert "widen_every" not in kinds and "sample" in kinds
        assert decision.approximate
        assert bound_query_cost(lq, catalog).units_per_sec() <= 200.0

    def test_sample_rate_floors_at_the_minimum(self):
        lq = parse_query("SELECT COUNT(*) AS n FROM s" + CONT)
        catalog = stats_catalog(rate=100.0)
        # Budget only reachable at the 5% floor itself (the floored
        # bound is 115 u/s: the 100 u/s scan term plus 5% of the
        # exchange+fold terms). The query is scan-bound, so widening
        # rolls back and sampling is the only rung applied.
        decision = AdmissionPolicy(budget_units=120.0).admit(lq, catalog)
        assert decision.admitted
        (deg,) = decision.degradations
        assert deg["kind"] == "sample" and deg["rate"] == 0.05
        assert lq.options["sample_rate"] == 0.05

    def test_refusal_carries_the_bound(self):
        lq = parse_query("SELECT COUNT(*) AS n FROM s" + CONT)
        with pytest.raises(AdmissionError) as info:
            AdmissionPolicy(budget_units=50.0).admit(
                lq, stats_catalog(rate=100.0))
        assert info.value.budget == 50.0
        assert info.value.bound.units_per_sec() > 50.0


# ----------------------------------------------------------------------
# End to end through PierNetwork
# ----------------------------------------------------------------------
def admission_net(budget, nodes=6, seed=9):
    net = PierNetwork(nodes=nodes, seed=seed, config=PierConfig(
        admission=AdmissionPolicy(budget_units=budget)))
    net.create_stream_table("s", [("k", "INT"), ("v", "INT")], window=30.0)
    return net


def install_ticker(net, address, row_fn, period=1.0):
    def tick():
        engine = net.node(address).engine
        engine.stream_append("s", row_fn(engine))
        engine.set_timer(period, tick)

    net.node(address).engine.set_timer(0.1, tick)


DISTINCT_SQL = ("SELECT COUNT(DISTINCT v) AS d FROM s "
                "EVERY 5 SECONDS LIFETIME 20 SECONDS")


class TestAdmissionEndToEnd:
    def test_cold_catalog_admits_and_stamps_metadata(self):
        net = admission_net(budget=100.0)
        plan = net.compile_sql(DISTINCT_SQL)
        admission = plan.metadata["admission"]
        assert admission["degradations"] == []
        assert not admission["approximate"]
        assert admission["bound"]["units_per_sec"] == 0.0

    def test_cost_metadata_is_the_admitted_bound(self):
        """One compile prices once, at ``now``: a table still in its
        first stats bucket rates from the partial bucket, and the plan
        carries only the bound admission decided on -- no second
        pricing that reads the cold table as zero."""
        net = admission_net(budget=1e9, nodes=4)
        engine = net.node(net.addresses()[0]).engine
        for i in range(20):
            engine.stream_append("s", (i, i))
            net.advance(0.1)
        plan = net.compile_sql(
            "SELECT COUNT(*) AS n FROM s EVERY 2 SECONDS LIFETIME 10 SECONDS")
        assert plan.metadata["admission"]["bound"]["units_per_sec"] > 0.0
        assert "cost" not in plan.metadata

    def test_over_budget_distinct_runs_sketched_and_labeled(self):
        # Budget sized so the sketch rung *alone* brings the bound
        # under: the answer must stay estimable (sampling a DISTINCT
        # genuinely loses values, the sketch only blurs the count).
        net = admission_net(budget=2000.0, nodes=6)
        net.catalog.stats.seed("s", rate=300.0, row_bytes=48.0)
        # 6 tickers x 12 rotating values = 72 distinct once the window
        # fills (the shape the distributed-panes suite checks exactly).
        for i, address in enumerate(net.addresses()):
            install_ticker(net, address, lambda engine, i=i: (
                i, i * 12 + int(engine.clock.now) % 12))
        results = []
        handle = net.submit_sql(
            "SELECT COUNT(DISTINCT v) AS d FROM s "
            "EVERY 5 SECONDS WINDOW 30 SECONDS LIFETIME 30 SECONDS",
            on_epoch=results.append)
        admission = handle.plan.metadata["admission"]
        assert [d["kind"] for d in admission["degradations"]] == ["sketch"]
        assert admission["approximate"]
        net.advance(30 + handle.plan.deadline + 3)
        settled = [r for r in results if r.epoch >= 4 and r.rows]
        assert settled
        (sketch_deg,) = admission["degradations"]
        for r in settled:
            # The answer is *labeled* approximate...
            assert r.approximate == admission["degradations"]
            # ...and lands within ~3 sigma of the documented error.
            true_distinct = 72
            assert abs(r.rows[0][0] - true_distinct) <= (
                3 * sketch_deg["relative_error"] * true_distinct + 2)

    def test_exact_answers_carry_no_label(self):
        net = admission_net(budget=None)
        results = []
        handle = net.submit_sql(
            "SELECT COUNT(*) AS n FROM s EVERY 5 SECONDS "
            "LIFETIME 10 SECONDS", on_epoch=results.append)
        net.advance(10 + handle.plan.deadline + 3)
        assert results and all(r.approximate is None for r in results)

    def test_refused_query_never_disseminates(self):
        net = admission_net(budget=10.0)
        net.catalog.stats.seed("s", rate=500.0, row_bytes=48.0)
        sent_before = net.net.counters.get("messages_sent")
        with pytest.raises(AdmissionError):
            net.submit_sql(DISTINCT_SQL)
        assert net.net.counters.get("messages_sent") == sent_before

    def test_stream_appends_feed_the_stats_catalog(self):
        net = admission_net(budget=None)
        address = net.addresses()[0]
        for i in range(100):
            net.node(address).engine.stream_append("s", (i, i))
            net.advance(0.1)
        assert net.catalog.stats.arrival_rate("s", now=net.now) > 0.0
        assert net.catalog.stats.avg_row_bytes("s") > 0.0

    def test_stream_append_reports_what_wire_size_would(self):
        """The ingest fast path sizes a fixed-width row from its schema
        and everything else with ``wire_size``: either way the catalog
        hears the number ``wire_size(row)`` returns for the row as it
        was handed in."""
        net = PierNetwork(nodes=2, seed=3, config=PierConfig())
        net.create_stream_table("fixed", [("k", "INT"), ("v", "FLOAT"),
                                          ("up", "BOOL")], window=30.0)
        net.create_stream_table("texty", [("k", "INT"), ("tag", "STR")],
                                window=30.0)
        heard = []
        net.catalog.stats.note_append = (
            lambda table, nbytes, now: heard.append(nbytes))
        engine = net.node(net.addresses()[0]).engine
        rows = {
            "fixed": [(1, 2.0, True), (1, 2, True), (True, 2.0, False),
                      (None, 2.0, True), [1, 2.0, True], ("7", "2.5", 1),
                      {"k": 1, "v": 2.0, "up": False}],
            "texty": [(1, "a"), (2, "longer tag"), (3, "t\u00e9rm"),
                      [4, "x"], {"k": 5, "tag": "y"}],
        }
        for table, batch in rows.items():
            for row in batch:
                engine.stream_append(table, row)
        assert heard == [wire_size(row) for batch in rows.values()
                         for row in batch]
        assert engine.fragment("fixed").schema.fixed_row_bytes == 21
        assert engine.fragment("texty").schema.fixed_row_bytes is None

    def test_epoch_close_feeds_group_cardinality_back(self):
        net = admission_net(budget=None)
        for i, address in enumerate(net.addresses()):
            install_ticker(net, address,
                           lambda engine, i=i: (i % 3, i))
        handle = net.submit_sql(
            "SELECT k, COUNT(*) AS n FROM s GROUP BY k EVERY 5 SECONDS "
            "LIFETIME 15 SECONDS")
        stats_key = handle.plan.metadata["stats_key"]
        assert stats_key is not None
        net.advance(15 + handle.plan.deadline + 3)
        observed = net.catalog.stats.group_cardinality(stats_key)
        assert observed == pytest.approx(3.0, abs=0.5)


# ----------------------------------------------------------------------
# Deterministic scan sampling
# ----------------------------------------------------------------------
class TestScanSampling:
    def test_sample_keep_is_deterministic_and_proportional(self):
        from repro.core.operators.scan import _sample_keep

        rows = [(i, "v{}".format(i)) for i in range(4000)]
        threshold = int(0.25 * 1_000_000)
        kept = [row for row in rows if _sample_keep(row, threshold)]
        # Same rows, same verdicts -- on any node, in any process.
        assert kept == [row for row in rows if _sample_keep(row, threshold)]
        assert 0.20 < len(kept) / len(rows) < 0.30

    def test_sampled_standing_scan_emits_a_subset(self):
        def run(rate):
            net = admission_net(budget=None, seed=31)
            for i, address in enumerate(net.addresses()):
                install_ticker(
                    net, address,
                    lambda engine, i=i: (i, int(engine.clock.now * 10)),
                    period=0.25)
            results = []
            options = {"sample_rate": rate} if rate is not None else None
            handle = net.submit_sql(
                "SELECT COUNT(*) AS n FROM s EVERY 5 SECONDS "
                "LIFETIME 15 SECONDS",
                on_epoch=results.append, options=options)
            if rate is not None:
                scans = handle.plan.ops_of_kind("scan")
                assert all(s.params.get("sample") == rate for s in scans)
            net.advance(15 + handle.plan.deadline + 3)
            settled = [r for r in results if r.epoch >= 2 and r.rows]
            assert settled
            return sum(r.rows[0][0] for r in settled) / len(settled)

        full = run(None)
        sampled = run(0.2)
        assert sampled < 0.5 * full
        assert sampled > 0.0
