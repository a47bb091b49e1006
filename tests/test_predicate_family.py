"""Predicate families: one fold for every threshold, and each member
still answers exactly as its private twin does.

Standing aggregates over one stream whose whole WHERE is ``v OP
constant`` run as one :class:`~repro.core.sharing.FamilyRecord`: each
row folds once, into its interval between the members' constants, and
every member's state is rebuilt from the intervals by a suffix (or
prefix) merge. Each test submits the members beside their ``{"shared":
False}`` twins on one testbed, and checks every epoch of every member
against its twin and against a plain-Python recomputation from the
tickers' own log.

The tickers append integer values, so integer constants meet rows equal
to them: ``>`` and ``>=`` (``<`` and ``<=``) must part there exactly.
"""

import operator

import pytest

from benchmarks.perf.reference import RowLog, same_rows
from repro.core.engine import PierEngine
from repro.core.network import PierNetwork
from repro.core.sharing import FamilyRecord

OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
       ">=": operator.ge}
PRIVATE = {"shared": False}
EVERY = 10

# Select lists, and what each answers over the qualifying (v, g) rows.
FORMS = {
    "sum": ("SUM(v) AS total, COUNT(*) AS n",
            lambda rows: [(sum(v for v, _g in rows), len(rows))]),
    "avg": ("AVG(v) AS mean, MIN(v) AS low",
            lambda rows: [(sum(v for v, _g in rows) / len(rows),
                           min(v for v, _g in rows))]),
    "max": ("MAX(v) AS top", lambda rows: [(max(v for v, _g in rows),)]),
}


def ticking_net(seed=11, nodes=6):
    """Node ``i`` appends ``i``, ``i + 1``, ``i + 2``, ... in turn (group
    ``g`` alternating 0 / 1) every 1.5 s, logging each row."""
    net = PierNetwork(nodes=nodes, seed=seed)
    net.create_stream_table("s", [("v", "FLOAT"), ("g", "INT")],
                            window=80.0)
    log = RowLog()
    for i, address in enumerate(net.addresses()):
        steps = iter(range(10 ** 6))

        def tick(address=address, i=i, steps=steps):
            engine = net.node(address).engine
            n = next(steps)
            row = (float(i + n % 3), n % 2)
            engine.stream_append("s", row)
            log.add(engine.clock.now, address, "s", [row])
            engine.set_timer(1.5, tick)

        net.node(address).engine.set_timer(0.1, tick)
    return net, log


class Member:
    """One family member and its private twin."""

    def __init__(self, op=">", constant=3, form="sum", group=False,
                 window=30, lifetime=50, names=None, options=None):
        self.op, self.constant, self.form = op, constant, form
        self.group, self.window, self.options = group, window, options or {}
        select = FORMS[form][0]
        if names is not None:
            for old, new in names.items():
                select = select.replace(" AS " + old, " AS " + new)
        self.sql = "SELECT {}{} FROM s WHERE v {} {}{} EVERY {} SECONDS " \
            "WINDOW {} SECONDS LIFETIME {} SECONDS".format(
                "g, " if group else "", select, op, constant,
                " GROUP BY g" if group else "", EVERY, window, lifetime)

    def submit(self, net, site):
        self.shared = net.submit_sql(self.sql, node=site,
                                     options=dict(self.options) or None)
        self.private = net.submit_sql(
            self.sql, node=site, options=dict(self.options, **PRIVATE))
        assert self.shared.plan.metadata.get("family")
        assert "family" not in self.private.plan.metadata

    def truth(self, log, k):
        hi = self.shared.t0 + k * EVERY
        rows = [(v, g) for v, g in log.window("s", hi - self.window, hi)
                if OPS[self.op](v, self.constant)]
        answer = FORMS[self.form][1]
        if not self.group:
            return answer(rows) if rows else []
        groups = sorted({g for _v, g in rows})
        return [(g,) + answer([r for r in rows if r[1] == g])[0]
                for g in groups]


def run(members, joins=None, stops=None, until=None, seed=11):
    """Submit ``members`` at once (or ``joins[i]`` seconds later), stop
    those in ``stops`` (index -> seconds), and run ``until`` seconds;
    returns the testbed and its log."""
    net, log = ticking_net(seed)
    start, site = net.now, net.any_address()
    events = [((joins or {}).get(i, 0.0), "submit", m)
              for i, m in enumerate(members)]
    events += [(at, "stop", members[i]) for i, at in (stops or {}).items()]
    for at, kind, member in sorted(events, key=lambda e: (e[0], e[1])):
        net.advance(start + at - net.now)
        if kind == "submit":
            member.submit(net, site)
        else:
            member.shared.stop()
            member.private.stop()
    net.advance(start + (until or 80.0) - net.now)
    return net, log


def check(members, log, min_epochs=2):
    """Every epoch of every member: its twin's rows and the truth."""
    for i, m in enumerate(members):
        got = {k: r.rows for k, r in m.shared.results.items()}
        want = {k: r.rows for k, r in m.private.results.items()}
        assert set(got) == set(want) and len(want) >= min_epochs, (i, got)
        for k in sorted(want):
            assert same_rows(got[k], want[k]), (i, k, got[k], want[k])
            assert same_rows(got[k], m.truth(log, k)), (i, k, got[k])


def families(net):
    return [r for n in net.nodes.values() for r in n.engine.records.values()
            if isinstance(r, FamilyRecord)]


@pytest.mark.parametrize("window", [30, 10])  # paned, tumbling
def test_members_at_many_constants_answer_as_their_twins(window):
    members = [Member(constant=c, window=window) for c in (0, 2, 3, 5, 7)]
    net, log = run(members, until=30.0)
    # One family per node, every member in it, no spine of their own.
    for record in families(net):
        assert len(record.subscribers) == 5
        assert record.layout.cuts == [0, 2, 3, 5, 7]
    assert len(families(net)) == len(net.nodes)
    net.advance(50.0)
    check(members, log)


@pytest.mark.parametrize("op", [">", ">=", "<", "<="])
def test_rows_equal_to_the_constant_part_by_the_operator(op):
    members = [Member(op=op, constant=c) for c in (3, 4, 4.5)]
    _net, log = run(members)
    check(members, log)
    # The ticker values do hit 3 and 4 exactly.
    assert any(v in (3.0, 4.0) for v, _g in log.window("s", 0, 80))


@pytest.mark.parametrize("window", [30, 10])  # paned, tumbling
def test_joiner_reads_the_panes_folded_before_it_joined(window):
    # The joiner's first window reaches back over panes the family had
    # already folded for the founder: it gets them once, from the stage
    # scan's log, under its own key.
    founder, joiner, late = (Member(constant=2, window=window, lifetime=60),
                             Member(constant=4, window=window),
                             Member(constant=4, window=window))
    _net, log = run([founder, joiner, late], joins={1: 20.0, 2: 40.0},
                    until=110.0)
    check([founder, joiner, late], log)


def test_a_stopped_member_leaves_the_others_exact():
    members = [Member(constant=c) for c in (1, 3, 5)]
    net, log = run(members, stops={1: 25.0}, until=25.0)
    stopped = members[1]
    closed = set(stopped.shared.results)
    net.advance(55.0)
    assert set(stopped.shared.results) == closed == {1}
    check([members[0], members[2]], log)
    assert same_rows(stopped.shared.results[1].rows,
                     stopped.truth(log, 1))
    for record in families(net):
        assert stopped.shared.qid not in record.subscribers


def test_one_constant_two_output_names():
    members = [Member(constant=3),
               Member(constant=3, names={"total": "t", "n": "how_many"})]
    _net, log = run(members)
    check(members, log)
    assert members[1].shared.results[1].columns == ["t", "how_many"]


def test_avg_min_and_max_forms():
    members = [Member(form="avg", constant=2), Member(form="avg", constant=5),
               Member(form="max", op="<", constant=4),
               Member(form="max", op="<", constant=6)]
    _net, log = run(members)
    check(members, log)


def test_without_the_aggregation_tree():
    options = {"aggregation_tree": False}
    members = [Member(constant=c, options=options) for c in (1, 4)]
    _net, log = run(members)
    check(members, log)


@pytest.mark.parametrize("window", [30, 10])
def test_group_by_family(window):
    members = [Member(constant=c, group=True, window=window)
               for c in (1, 4, 6)]
    _net, log = run(members)
    check(members, log)


def test_one_message_per_site_and_epoch(monkeypatch):
    # Three members at one site: a global group has one owner, which
    # sends the site each epoch's three parts in one ``qparts``.
    ops = []
    real = PierEngine._on_direct

    def spy(engine, payload, src):
        if payload.get("op") in ("qres", "qparts"):
            ops.append((payload["op"], len(payload.get("parts", [1]))))
        return real(engine, payload, src)

    monkeypatch.setattr(PierEngine, "_on_direct", spy)
    net, log = ticking_net()
    site = net.any_address()
    members = [Member(constant=c) for c in (1, 3, 5)]
    for m in members:
        m.shared = net.submit_sql(m.sql, node=site)
    net.advance(80.0)
    assert ops and all(op == ("qparts", 3) for op in ops)
    for m in members:
        assert {k for k in m.shared.results} == {1, 2, 3, 4, 5}
        for k, result in m.shared.results.items():
            assert same_rows(result.rows, m.truth(log, k))
