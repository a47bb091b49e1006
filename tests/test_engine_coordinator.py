"""Engine and coordinator internals: adoption, lifecycle, soft state."""

import ast
import inspect
import pathlib
import re

import pytest
from stubs import RecordingDht

from repro.core import planner
from repro.core.admission import AdmissionPolicy
from repro.core.catalog import StatsCatalog
from repro.core.engine import EngineConfig, PierEngine
from repro.core.network import PierConfig, PierNetwork
from repro.dht.chord import ChordNode
from repro.dht.config import DhtConfig
from repro.sim.network import NetworkConfig


@pytest.fixture
def net():
    n = PierNetwork(nodes=8, seed=600)
    n.create_local_table("t", [("k", "INT"), ("v", "FLOAT")])
    for i in range(8):
        n.insert("node{}".format(i), "t", [(i, float(i))])
    return n


class TestKnobs:
    def test_config_parameter_sets_are_pinned(self):
        """Every knob doubles the configurations tests and benches must
        cover, so adding one has to show up as a reviewed diff here
        (and in the ``EngineConfig`` / ``DhtConfig`` docstring's table
        of who sets it). A value nothing outside tests sets is a module
        constant."""
        def knobs(cls):
            return list(inspect.signature(cls.__init__).parameters)[1:]

        assert knobs(EngineConfig) == ["max_batch_rows", "regional_trees"]
        assert knobs(PierConfig) == ["dht", "engine", "network", "admission"]
        assert knobs(AdmissionPolicy) == ["budget_units"]
        assert knobs(StatsCatalog) == []
        assert knobs(DhtConfig) == [
            "rpc_timeout", "lookup_timeout", "hop_retransmit_timeout",
            "proximity_routing",
        ]
        assert knobs(NetworkConfig) == ["loss_rate", "service_time"]
        for cls in (EngineConfig, DhtConfig, NetworkConfig, AdmissionPolicy):
            assert vars(cls()).keys() == set(knobs(cls))

    @pytest.mark.parametrize("cls", [
        EngineConfig, DhtConfig, NetworkConfig, PierConfig, AdmissionPolicy])
    def test_every_knob_has_a_caller(self, cls):
        """The census rule, checked: each field is passed as ``name=``
        somewhere outside ``tests/`` and outside its class's own
        module. A field only tests set is a module constant."""
        own = pathlib.Path(inspect.getsourcefile(cls)).resolve()
        callers = _sources(exclude=own)
        unset = [name for name in list(inspect.signature(
                     cls.__init__).parameters)[1:]
                 if not re.search(r"\b{}=(?!=)".format(name), callers)]
        assert unset == []

    def test_query_options_are_pinned(self):
        """The planner is the only reader of per-query options, and
        ``QUERY_OPTIONS`` -- what compile accepts -- is exactly what it
        reads; the census of who sets each is in docs/ARCHITECTURE.md."""
        read = re.findall(r'options\.get\("(\w+)"', inspect.getsource(planner))
        assert sorted(set(read)) == sorted(planner.QUERY_OPTIONS) == [
            "aggregation_tree", "join_strategy", "paned",
            "recursion_deadline", "shared",
        ]

    def test_every_query_option_has_a_caller(self):
        """Each option is named (quoted) somewhere outside ``tests/``
        and outside the planner that reads it."""
        callers = _sources(
            exclude=pathlib.Path(inspect.getsourcefile(planner)).resolve())
        unset = sorted(name for name in planner.QUERY_OPTIONS
                       if '"{}"'.format(name) not in callers)
        assert unset == []


def _sources(exclude):
    """The text of every ``.py`` file outside ``tests/``, less one."""
    repo = pathlib.Path(__file__).resolve().parent.parent
    return "\n".join(
        path.read_text(encoding="utf-8")
        for top in ("src", "benchmarks", "examples", "tools")
        for path in sorted((repo / top).rglob("*.py"))
        if path.resolve() != exclude
    )


class TestSiteCensus:
    def test_the_site_finishes_only_through_operators(self):
        """The query site finishes an epoch on the plan's site fragment
        (``core/site.py``), not on a hand-written copy of the merge,
        finalize, HAVING, projection and sort its operators run."""
        text = (SRC / "core" / "coordinator.py").read_text(encoding="utf-8")
        assert [word for word in (
            "compile_batch", "agg.merge", "agg.final", "sort_rows")
            if word in text] == []


class TestRecordingDht:
    def test_the_fake_offers_only_chord_node_names(self):
        """The engine calls its ``ChordNode`` directly and
        ``stubs.RecordingDht`` fakes that node by duck typing, so a
        method of the fake that ``ChordNode`` lacks is a call the
        engine could make in a unit test and never in a deployment."""
        offered = {name for name in vars(RecordingDht)
                   if not name.startswith("_")}
        assert offered
        assert sorted(offered - set(dir(ChordNode))) == []

    @pytest.mark.parametrize("name", sorted(
        name for name, value in vars(RecordingDht).items()
        if not name.startswith("_") and callable(value)))
    def test_each_fake_method_takes_chord_node_arguments(self, name):
        """A call written against ``ChordNode`` binds to the fake the
        same way: a method the fake implements has the node's exact
        parameters (names, kinds, defaults), and a handler registration
        it ignores takes any positional call."""
        real = list(inspect.signature(getattr(ChordNode, name))
                    .parameters.values())
        fake = list(inspect.signature(getattr(RecordingDht, name))
                    .parameters.values())
        if [p.kind for p in fake[1:]] == [inspect.Parameter.VAR_POSITIONAL]:
            assert real[1:]
            assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
                       and p.default is inspect.Parameter.empty
                       for p in real[1:])
        else:
            assert fake == real


TRACE = pathlib.Path(__file__).resolve().parent.parent / "benchmarks/perf/trace.py"
# What benchmarks/perf/trace.py wraps on each class; it wraps a name
# only if the class body itself defines it.
TRACED = [(ChordNode, name) for name in (
    "handle_message", "route", "route_via", "route_through", "put", "get",
    "renew", "lookup", "broadcast", "send_direct")] + [
    (PierEngine, name) for name in (
        "stream_append", "local_insert", "publish", "_on_broadcast",
        "_on_direct", "_on_unclaimed_delivery")]


class TestTracePins:
    @pytest.mark.parametrize("owner, name", TRACED,
                             ids=["{}.{}".format(o.__name__, n) for o, n in TRACED])
    def test_traced_method_is_defined_on_its_class(self, owner, name):
        """The perf tracer silently skips a name a refactor moved to a
        base class or mixin, which zeroes its per-layer counts (every
        ``dht.*`` count, ``dht.hops_per_route``) instead of failing."""
        assert '"{}"'.format(name) in TRACE.read_text(encoding="utf-8")
        assert name in vars(owner)


SRC = pathlib.Path(__file__).resolve().parent.parent / "src/repro"
# The owner-learning protocol's wire words and its salted-key rule.
OWNER_LITERALS = {"xowner", "xowner_stale", "learn"}
OWNER_NAMES = {"epoch_route_ns"}


def _owner_protocol_use(node):
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value in OWNER_LITERALS
    name = (getattr(node, "id", None) or getattr(node, "attr", None)
            or getattr(node, "name", None))
    return name in OWNER_NAMES


class TestOwnerProtocolPin:
    def test_owner_protocol_is_spoken_only_in_owners_module(self):
        """Which key a standing payload walks, when it asks the owner
        to identify itself and how the answer is filed are decided in
        ``core/owners.py`` alone: no other module of ``src/repro`` spells
        the protocol's ops or the ``learn`` flag as a string, or names
        ``epoch_route_ns`` (the engine dispatches ``OWNER_OPS``)."""
        owners = SRC / "core" / "owners.py"
        found = sorted(
            "{}:{}".format(path.relative_to(SRC), node.lineno)
            for path in SRC.rglob("*.py") if path != owners
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if _owner_protocol_use(node)
        )
        assert found == []
        assert any(_owner_protocol_use(node) for node in ast.walk(
            ast.parse(owners.read_text(encoding="utf-8"))))


class TestPlanAdoption:
    def test_all_engines_adopt_oneshot(self, net):
        handle = net.submit_sql("SELECT SUM(v) AS s FROM t")
        net.advance(1.0)
        adopted = sum(
            1 for a in net.addresses()
            if handle.qid in net.node(a).engine.queries
        )
        assert adopted == 8

    def test_oneshot_query_record_expires(self, net):
        handle = net.submit_sql("SELECT SUM(v) AS s FROM t")
        net.advance(handle.plan.deadline + 5)
        for a in net.addresses():
            assert handle.qid not in net.node(a).engine.queries
            assert not net.node(a).engine.records

    def test_duplicate_broadcast_ignored(self, net):
        handle = net.submit_sql("SELECT SUM(v) AS s FROM t")
        net.advance(0.5)
        engine = net.node("node3").engine
        record = engine.queries[handle.qid]
        # Simulate a refresh arriving: same qid must keep the record.
        engine._adopt_query({
            "qid": handle.qid, "plan": handle.plan,
            "t0": handle.t0, "origin": net.any_address(),
        })
        assert engine.queries[handle.qid] is record

    def test_stop_broadcast_tears_down(self, net):
        net.create_stream_table("s", [("v", "FLOAT")], window=20)
        handle = net.submit_sql(
            "SELECT COUNT(*) AS n FROM s EVERY 5 SECONDS LIFETIME 500 SECONDS"
        )
        net.advance(12)
        handle.stop()
        net.advance(3)
        for a in net.addresses():
            assert handle.qid not in net.node(a).engine.queries


class TestEngineCrash:
    def test_crash_clears_engine_state(self, net):
        handle = net.submit_sql("SELECT SUM(v) AS s FROM t", node="node0")
        net.advance(1.0)
        victim = net.node("node5")
        assert handle.qid in victim.engine.queries
        net.crash_node("node5")
        assert victim.engine.queries == {}
        assert victim.engine.fragments == {}
        assert victim.engine.records == {}

    def test_coordinator_crash_kills_its_queries(self, net):
        handle = net.submit_sql("SELECT SUM(v) AS s FROM t", node="node0")
        net.crash_node("node0")
        net.advance(handle.plan.deadline + 5)
        assert handle.result(0) is None
        assert handle.finished

    def test_query_survives_non_coordinator_crashes(self, net):
        handle = net.submit_sql("SELECT COUNT(*) AS n FROM t", node="node0")
        net.advance(0.5)
        net.crash_node("node6")
        net.advance(handle.plan.deadline + 5)
        result = handle.result(0)
        assert result is not None
        # node6's row may be missing; everyone else's counted.
        assert result.rows[0][0] >= 7


class TestMaintainedPublish:
    def test_keep_alive_survives_storing_node_crash(self, net):
        net.create_dht_table("kv", [("k", "STR"), ("v", "INT")],
                             partition_key="k", ttl=30.0)
        net.publish("node0", "kv", ("alpha", 1), keep_alive=True)
        net.advance(3)
        # Find and kill whoever stores the row.
        owner = next(
            a for a in net.addresses()
            if net.node(a).chord.lscan("kv")
        )
        if owner == "node0":
            pytest.skip("publisher is the owner in this seed")
        net.crash_node(owner)
        # Within ttl/3 = 10s the publisher re-puts to the new owner.
        net.advance(15)
        result = net.run_sql("SELECT k, v FROM kv")
        assert result.rows == [("alpha", 1)]

    def test_without_keep_alive_data_dies_with_owner(self, net):
        net.create_dht_table("kv2", [("k", "STR"), ("v", "INT")],
                             partition_key="k", ttl=600.0)
        net.publish("node0", "kv2", ("beta", 2), keep_alive=False)
        net.advance(3)
        owner = next(
            a for a in net.addresses()
            if net.node(a).chord.lscan("kv2")
        )
        net.crash_node(owner)
        net.advance(15)
        result = net.run_sql("SELECT k, v FROM kv2")
        assert result.rows == []

    def test_stop_publishing_lets_row_expire(self, net):
        net.create_dht_table("kv3", [("k", "STR"), ("v", "INT")],
                             partition_key="k", ttl=12.0)
        iid = net.publish("node1", "kv3", ("gamma", 3), keep_alive=True)
        net.advance(30)
        assert net.run_sql("SELECT k, v FROM kv3").rows == [("gamma", 3)]
        net.stop_publishing("node1", "kv3", iid)
        net.advance(30)
        assert net.run_sql("SELECT k, v FROM kv3").rows == []

    def test_publisher_crash_stops_maintenance(self, net):
        net.create_dht_table("kv4", [("k", "STR"), ("v", "INT")],
                             partition_key="k", ttl=12.0)
        net.publish("node2", "kv4", ("delta", 4), keep_alive=True)
        net.advance(3)
        net.crash_node("node2")
        net.advance(30)  # past ttl with no re-puts
        result = net.run_sql("SELECT k, v FROM kv4")
        assert result.rows == []


class TestExplain:
    def test_explain_lists_ops(self, net):
        text = net.explain_sql(
            "SELECT k, SUM(v) AS s FROM t GROUP BY k ORDER BY s DESC LIMIT 2"
        )
        for kind in ("scan", "groupby_partial", "exchange", "groupby_final",
                     "result", "root"):
            assert kind in text

    def test_explain_non_aggregate_topk(self, net):
        text = net.explain_sql("SELECT k FROM t ORDER BY k LIMIT 2")
        assert "topk" in text

    def test_explain_shows_flush_offsets(self, net):
        text = net.explain_sql("SELECT SUM(v) AS s FROM t")
        assert "flush@" in text


class TestSiteReconciliation:
    """What the query site makes of the rows it collected: the EpochResult
    equals a plain-Python recomputation from exactly those rows."""

    AGG = ("SELECT k, SUM(v) AS s, COUNT(*) AS n FROM e GROUP BY k "
           "HAVING n > 1 ORDER BY s DESC LIMIT 2")
    MEMBER = "SELECT k, COUNT(*) AS n FROM e WHERE v > {} GROUP BY k"
    TOP = "SELECT k, v FROM e ORDER BY v DESC LIMIT 3"

    @pytest.fixture
    def site(self):
        n = PierNetwork(nodes=4, seed=601)
        n.create_local_table("e", [("k", "INT"), ("v", "FLOAT")])  # empty
        handles = {name: n.submit_sql(sql, node="node0") for name, sql in (
            ("agg", self.AGG), ("b", self.MEMBER.format(1)),
            ("c", self.MEMBER.format(5)), ("top", self.TOP))}
        return n, handles

    def test_owners_refinements_having_family_and_cut(self, site):
        net, h = site
        engine = net.node("node0").engine

        def qres(name, node, rows, replace=True):
            engine.coordinator.on_result({
                "op": "qres", "qid": h[name].qid, "epoch": 0,
                "node": node, "rows": rows, "replace": replace})

        # Two acting owners of group 1 (ring healing), a group HAVING
        # drops (3: n = 1), and node3's refinement replacing its first
        # batch.
        agg = {"node1": [((1,), (10.0, 1)), ((2,), (5.0, 2))],
               "node2": [((1,), (7.5, 2)), ((3,), (50.0, 1))],
               "node3": [((4,), (100.0, 5))]}
        for node, rows in agg.items():
            qres("agg", node, rows)
        agg["node3"] = [((4,), (3.0, 3))]
        qres("agg", "node3", agg["node3"])
        # A predicate family's owner answers two members in one qparts.
        members = {"b": {"node2": [((1,), (4,)), ((2,), (1,))],
                         "node3": [((1,), (1,))]},
                   "c": {"node2": [((1,), (2,))]}}
        engine._on_direct({"op": "qparts", "node": "node2", "replace": True,
                           "parts": [(h[name].qid, 0, members[name]["node2"])
                                     for name in ("b", "c")]}, None)
        qres("b", "node3", members["b"]["node3"])
        # A plain ORDER BY / LIMIT across three nodes' appended rows.
        top = {"node1": [(1, 2.0), (2, 9.0)], "node2": [(3, 4.0), (4, 8.0)],
               "node3": [(5, 1.0)]}
        for node, rows in top.items():
            qres("top", node, rows, replace=False)
        net.advance(max(handle.plan.deadline for handle in h.values()) + 1)

        sums, counts = {}, {}
        for rows in agg.values():
            for (k,), (s, n) in rows:
                sums[k] = sums.get(k, 0.0) + s
                counts[k] = counts.get(k, 0) + n
        assert h["agg"].result(0).rows == sorted(
            ((k, sums[k], counts[k]) for k in sums if counts[k] > 1),
            key=lambda row: -row[1])[:2]
        for name, by_node in members.items():
            n = {}
            for rows in by_node.values():
                for (k,), (count,) in rows:
                    n[k] = n.get(k, 0) + count
            assert sorted(h[name].result(0).rows) == sorted(n.items())
        assert h["top"].result(0).rows == sorted(
            (row for rows in top.values() for row in rows),
            key=lambda row: -row[1])[:3]

    def test_no_epoch_state_outlives_the_close(self, site):
        net, h = site
        engine = net.node("node0").engine
        engine.coordinator.on_result({
            "op": "qres", "qid": h["agg"].qid, "epoch": 0, "node": "node1",
            "rows": [((1,), (2.0, 2))], "replace": True})
        net.advance(h["agg"].plan.deadline + 1)
        assert h["agg"].result(0).rows == [(1, 2.0, 2)]
        for op in h["agg"].site.ops:
            assert len(getattr(op, "_epochs", ())) == 0


class TestEpochResultApi:
    def test_dicts_without_columns(self, net):
        from repro.core.coordinator import EpochResult

        r = EpochResult("q", 0, 0.0, [(1, 2)], None, set(), 1.0)
        assert r.dicts() == [{0: 1, 1: 2}]

    def test_repr_mentions_rows(self, net):
        result = net.run_sql("SELECT k FROM t WHERE k = 1")
        assert "1 rows" in repr(result)
