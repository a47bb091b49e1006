"""The Chord ground truth the ring tests compare against.

The DHT tests trust ``ring_oracle`` to say what a converged ring looks
like; these cases pin its answers on hand-built rings.
"""

from types import SimpleNamespace

from ring_oracle import owner_of, ring_is_consistent

from repro.util.ids import ID_SPACE


def ring(ids, dead=(), successors=None):
    """Nodes with the given ids whose successor pointers follow sorted
    id order over the live ones, unless ``successors`` overrides them
    (id -> successor id)."""
    nodes = {i: SimpleNamespace(id=i, ref=("ref", i), alive=i not in dead,
                                successor=None) for i in ids}
    live = sorted(i for i in ids if i not in dead)
    for pos, i in enumerate(live):
        nodes[i].successor = nodes[live[(pos + 1) % len(live)]].ref
    for i, succ in (successors or {}).items():
        nodes[i].successor = nodes[succ].ref
    return list(nodes.values())


class TestRingIsConsistent:
    def test_empty_ring_is_consistent(self):
        assert ring_is_consistent([])

    def test_lone_node_points_at_itself(self):
        assert ring_is_consistent(ring([42]))
        other = SimpleNamespace(id=7, ref=("ref", 7), alive=False,
                                successor=None)
        lone = ring([42])[0]
        lone.successor = other.ref
        assert not ring_is_consistent([lone, other])

    def test_sorted_cycle_is_consistent_in_any_list_order(self):
        nodes = ring([90, 10, 200, 55])
        assert ring_is_consistent(nodes)
        assert ring_is_consistent(list(reversed(nodes)))

    def test_a_skipped_successor_is_caught(self):
        assert not ring_is_consistent(ring([10, 55, 90], successors={10: 90}))

    def test_dead_nodes_leave_the_cycle(self):
        assert ring_is_consistent(ring([10, 55, 90], dead=(55,)))
        # A live node still pointing at the dead one is stale.
        assert not ring_is_consistent(
            ring([10, 55, 90], dead=(55,), successors={10: 55}))


class TestOwnerOf:
    def test_no_live_node_owns_nothing(self):
        assert owner_of([], 5) is None
        assert owner_of(ring([10], dead=(10,)), 5) is None

    def test_a_node_owns_its_own_id_and_the_gap_below_it(self):
        nodes = ring([10, 55, 90])
        assert owner_of(nodes, 55).id == 55
        assert owner_of(nodes, 11).id == 55
        assert owner_of(nodes, 56).id == 90

    def test_keys_past_the_largest_id_wrap_to_the_smallest(self):
        nodes = ring([10, 55, 90])
        assert owner_of(nodes, 91).id == 10
        assert owner_of(nodes, ID_SPACE - 1).id == 10
        assert owner_of(nodes, 0).id == 10

    def test_a_dead_owner_hands_its_keys_to_its_successor(self):
        nodes = ring([10, 55, 90], dead=(55,))
        assert owner_of(nodes, 30).id == 90
        assert owner_of(nodes, 55).id == 90
