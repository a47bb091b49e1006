"""The epoch grid is the plan's: the query site closes exactly the
epochs every engine runs.

``QueryPlan`` owns the grid (``t_k``, ``epoch_at``, ``first_epoch``,
``last_epoch``, ``retire_instant``); the coordinator's close and Bloom
timers and every engine's grid record read it, so LIFETIME / EVERY is
rounded in one place. A geometry whose LIFETIME is a multiple of EVERY
in decimal but not in binary (0.3 / 0.1 = 2.9999999999999996) must
still answer its last epoch.
"""

import math

import pytest

from repro.core.network import PierNetwork
from repro.core.opgraph import TEARDOWN_SLACK, OpSpec, QueryPlan


def one_op_plan(**kwargs):
    return QueryPlan([OpSpec("op1", "result")], "op1", **kwargs)


class TestPlanGrid:
    def test_oneshot_has_the_one_epoch_at_its_origin(self):
        plan = one_op_plan(deadline=4.0)
        assert (plan.first_epoch, plan.last_epoch) == (0, 0)
        assert plan.t_k(7.5, 0) == 7.5
        assert plan.epoch_at(7.5, 30.0) == 0
        assert plan.retire_instant(7.5) == 7.5 + 4.0 + TEARDOWN_SLACK

    def test_recursive_has_the_one_epoch(self):
        plan = one_op_plan(mode="recursive")
        assert (plan.first_epoch, plan.last_epoch) == (0, 0)
        assert plan.recursive

    def test_continuous_grid(self):
        plan = one_op_plan(mode="continuous", every=10.0, lifetime=45.0,
                           deadline=6.0)
        assert (plan.first_epoch, plan.last_epoch) == (1, 4)
        assert plan.t_k(3.0, 2) == 23.0
        assert plan.epoch_at(3.0, 2.0) == 0
        assert plan.epoch_at(3.0, 23.0) == 2
        assert plan.retire_instant(3.0) == 3.0 + 45.0 + 6.0 + TEARDOWN_SLACK

    def test_without_lifetime_the_grid_never_ends(self):
        plan = one_op_plan(mode="continuous", every=10.0)
        assert plan.last_epoch is None
        assert plan.retire_instant(3.0) == math.inf

    def test_last_epoch_rounds_to_the_decimal_geometry(self):
        plan = one_op_plan(mode="continuous", every=0.1, lifetime=0.3)
        assert plan.last_epoch == 3


# (EVERY, LIFETIME): in the first four, LIFETIME is a multiple of EVERY
# in decimal but ``k * every`` overshoots it in binary floating point
# at the last epoch; the rest are exact in binary or no multiple at all.
GEOMETRIES = [(0.1, 0.3), (0.1, 0.7), (0.2, 0.6), (1.1, 3.3),
              (0.7, 2.1), (0.25, 1.0), (0.4, 1.3), (1.5, 4.4)]


def run_geometry(every, lifetime, seed=5):
    """Submit a count over a stream table at ``EVERY every LIFETIME
    lifetime``; return the handle and each engine's last epoch."""
    net = PierNetwork(nodes=4, seed=seed)
    net.create_stream_table("s", [("v", "INT")], window=60.0)

    def tick(engine):
        engine.stream_append("s", (1,))
        engine.set_timer(every / 4, tick, engine)

    for address in net.addresses():
        engine = net.node(address).engine
        engine.set_timer(0.01, tick, engine)
    net.advance(2.0)
    handle = net.submit_sql(
        "SELECT COUNT(*) AS n FROM s EVERY {} SECONDS WINDOW {} SECONDS "
        "LIFETIME {} SECONDS".format(every, every, lifetime))
    net.advance(1.0)
    last = {address: net.node(address).engine.queries[handle.qid].last_epoch
            for address in net.addresses()}
    net.advance(lifetime + handle.plan.deadline + TEARDOWN_SLACK + 1.0)
    return handle, last


def test_every_decimal_lifetime_answers_its_last_epoch():
    handle, _last = run_geometry(0.1, 0.3)
    assert sorted(handle.results) == [1, 2, 3]
    # Epoch 3's answer was collected, not dropped as late.
    assert handle.results[3].reporters
    assert all(result.rows for result in handle.results.values())


@pytest.mark.parametrize("every, lifetime", GEOMETRIES)
def test_site_closes_the_engines_last_epoch(every, lifetime):
    handle, last = run_geometry(every, lifetime)
    assert handle.finished
    assert set(last.values()) == {max(handle.results)}
    assert sorted(handle.results) == list(range(1, max(handle.results) + 1))
