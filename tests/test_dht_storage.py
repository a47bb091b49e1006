"""Soft-state store: TTL expiry, renewal, adoption of handed-off items."""

import pytest

from repro.dht.storage import SoftStateStore, StoredItem


@pytest.fixture
def store(clock):
    return SoftStateStore(clock)


class TestPutGet:
    def test_put_then_get(self, store):
        store.put("ns", "k", 1, {"v": 1}, ttl=10)
        items = store.get("ns", "k")
        assert len(items) == 1
        assert items[0].value == {"v": 1}

    def test_multiple_instances_same_resource(self, store):
        store.put("ns", "k", 1, "a", ttl=10)
        store.put("ns", "k", 2, "b", ttl=10)
        assert {i.value for i in store.get("ns", "k")} == {"a", "b"}

    def test_put_same_triple_overwrites(self, store):
        store.put("ns", "k", 1, "old", ttl=10)
        store.put("ns", "k", 1, "new", ttl=10)
        items = store.get("ns", "k")
        assert len(items) == 1
        assert items[0].value == "new"

    def test_namespaces_isolated(self, store):
        store.put("a", "k", 1, "x", ttl=10)
        store.put("b", "k", 1, "y", ttl=10)
        assert store.get("a", "k")[0].value == "x"
        assert store.get("b", "k")[0].value == "y"

    def test_rejects_nonpositive_ttl(self, store):
        with pytest.raises(ValueError):
            store.put("ns", "k", 1, "x", ttl=0)


class TestExpiry:
    def test_reads_filter_expired(self, store, clock):
        store.put("ns", "k", 1, "x", ttl=5)
        clock.run_until(6)
        assert store.get("ns", "k") == []
        assert store.lscan("ns") == []

    def test_sweep_reclaims(self, store, clock):
        store.put("ns", "k", 1, "x", ttl=5)
        store.put("ns", "k2", 1, "y", ttl=100)
        clock.run_until(6)
        assert store.sweep() == 1
        assert len(store) == 1

    def test_renew_extends(self, store, clock):
        store.put("ns", "k", 1, "x", ttl=5)
        clock.run_until(4)
        assert store.renew("ns", "k", 1, ttl=10)
        clock.run_until(8)
        assert len(store.get("ns", "k")) == 1

    def test_renew_of_expired_fails(self, store, clock):
        store.put("ns", "k", 1, "x", ttl=5)
        clock.run_until(6)
        assert not store.renew("ns", "k", 1, ttl=10)

    def test_renew_of_missing_fails(self, store):
        assert not store.renew("ns", "nothing", 1, ttl=10)


class TestScans:
    def test_lscan_returns_namespace_items(self, store):
        store.put("ns", "a", 1, 1, ttl=10)
        store.put("ns", "b", 1, 2, ttl=10)
        store.put("other", "c", 1, 3, ttl=10)
        assert len(store.lscan("ns")) == 2

    def test_lscan_all(self, store):
        store.put("a", "x", 1, 1, ttl=10)
        store.put("b", "y", 1, 2, ttl=10)
        assert len(store.lscan_all()) == 2

    def test_items_in_range(self, store):
        store.put("ns", "a", 1, 1, ttl=10)
        store.put("ns", "b", 1, 2, ttl=10)
        picked = store.items_in_range(lambda item: item.resource_id == "a")
        assert len(picked) == 1

    def test_clear(self, store):
        store.put("ns", "a", 1, 1, ttl=10)
        store.clear()
        assert len(store) == 0

    def test_lscan_reads_the_store_as_it_is_now(self, store, clock):
        # A standing DHT scan calls lscan at every boundary, so each
        # call must reflect puts and expiries since the one before.
        store.put("ns", "a", 1, "a", ttl=5)
        assert [i.value for i in store.lscan("ns")] == ["a"]
        store.put("ns", "b", 1, "b", ttl=50)
        assert sorted(i.value for i in store.lscan("ns")) == ["a", "b"]
        clock.run_until(6)  # "a" expired, sweep has not run
        assert [i.value for i in store.lscan("ns")] == ["b"]

    def test_clear_leaves_nothing_to_sweep(self, store, clock):
        store.put("ns", "a", 1, 1, ttl=5)
        store.put("other", "b", 1, 2, ttl=5)
        store.clear()
        clock.run_until(6)
        assert store.sweep() == 0
        store.put("ns", "a", 1, 3, ttl=5)
        assert [i.value for i in store.lscan("ns")] == [3]
        assert store.lscan("other") == []


class TestAdopt:
    def test_put_item_of_live_key_updates_in_place(self, store, clock):
        # Handoff shares StoredItem objects by reference, so a refresh
        # of a live key must stay visible through the object held.
        held = store.put("ns", "k", 1, "here", ttl=30)
        store.put_item(StoredItem("ns", "k", 1, "again", clock.now + 60))
        assert store.get("ns", "k") == [held]
        assert held.value == "again"
        assert held.expires_at == clock.now + 60
        assert len(store) == 1

    def test_put_item_dead_in_transit_is_not_adopted(self, store, clock):
        store.put_item(StoredItem("ns", "k", 9, "corpse", clock.now - 1))
        assert len(store) == 0
        assert store.get("ns", "k") == []
        assert not store._by_namespace

    def test_put_item_over_expired_corpse_installs_new_value(
            self, store, clock):
        # A range can leave and come back (handoff out, interim owner
        # departs): the returning live item shares its key with this
        # node's expired, unswept copy, which must not shadow it.
        store.put("ns", "k", 1, "stale", ttl=5)
        clock.run_until(6)  # expired, sweep has not run
        returned = StoredItem("ns", "k", 1, "returned", clock.now + 30)
        store.put_item(returned)
        assert store.lscan("ns") == [returned]
        assert store.get("ns", "k")[0].value == "returned"

    def test_put_item_of_new_key_is_stored_by_reference(self, store, clock):
        handed = StoredItem("ns", "k", 1, "handed", clock.now + 5)
        store.put_item(handed)
        assert store.lscan("ns") == [handed]
        assert store.lscan("other") == []
        clock.run_until(6)
        assert store.sweep() == 1  # adoption queued its deadline
        assert len(store) == 0

    def test_put_over_expired_corpse_installs_new_value(self, store, clock):
        store.put("ns", "k", 1, "first", ttl=5)
        clock.run_until(6)  # expired, sweep has not run
        store.put("ns", "k", 1, "second", ttl=5)
        assert [i.value for i in store.lscan("ns")] == ["second"]
        assert store.sweep() == 0  # the corpse's deadline no longer counts
        assert [i.value for i in store.get("ns", "k")] == ["second"]


class TestStaleState:
    def test_failed_renew_reclaims_corpse(self, store, clock):
        store.put("ns", "k", 1, "x", ttl=5)
        clock.run_until(6)
        assert not store.renew("ns", "k", 1, ttl=10)
        # The corpse is gone from every index, not just hidden.
        assert len(store) == 0
        assert store.lscan("ns") == []
        assert not store._by_namespace

    def test_shortened_deadline_swept_promptly(self, store, clock):
        # A re-put with a shorter TTL must be reclaimed at the *new*
        # deadline; the queued entry for the original, later one must
        # not pin the corpse for the remainder of the old TTL.
        store.put("ns", "k", 1, "long", ttl=3600)
        store.put("ns", "k", 1, "short", ttl=5)
        clock.run_until(6)
        assert store.sweep() == 1
        assert len(store) == 0
        assert not store._by_namespace

    def test_heap_stays_bounded_under_renewal(self, store, clock):
        # A continuously maintained row (keep_alive republish / periodic
        # renew) must not grow the expiry heap by one entry per cycle:
        # entries per key stay O(1) no matter how long the row lives.
        store.put("ns", "k", 1, "x", ttl=120)
        for i in range(1, 51):
            clock.run_until(40 * i)
            assert store.renew("ns", "k", 1, ttl=120)
            store.sweep()
        assert len(store) == 1
        assert len(store._expiry_heap) <= 4

    def test_sweep_rearms_externally_renewed_items(self, store, clock):
        # Churn handoff passes StoredItem objects by reference, so a
        # renew at the new owner mutates expires_at underneath the old
        # owner's heap entry. Popping that stale entry must re-arm the
        # key, or the old owner can never reclaim the item.
        item = store.put("ns", "k", 1, "x", ttl=5)
        clock.run_until(4)
        item.expires_at = clock.now + 10  # renewed at the other owner
        clock.run_until(6)  # past the original deadline
        assert store.sweep() == 0
        clock.run_until(20)  # past the mutated deadline
        assert store.sweep() == 1
        assert len(store) == 0

    def test_renewed_item_survives_sweep_of_old_deadline(self, store, clock):
        store.put("ns", "k", 1, "x", ttl=5)
        clock.run_until(4)
        assert store.renew("ns", "k", 1, ttl=20)
        clock.run_until(6)  # past the original deadline
        assert store.sweep() == 0
        assert len(store.get("ns", "k")) == 1
        clock.run_until(30)  # past the renewed deadline
        assert store.sweep() == 1
        assert len(store) == 0

    def test_sweep_handles_interleaved_expiry(self, store, clock):
        for i in range(10):
            store.put("ns", "k{}".format(i), 1, i, ttl=5 + i)
        clock.run_until(9.5)  # items 0..4 expired, 5..9 alive
        assert store.sweep() == 5
        assert len(store) == 5
        clock.run_until(20)
        assert store.sweep() == 5
        assert len(store) == 0

    def test_overwrite_then_sweep_keeps_fresh_item(self, store, clock):
        store.put("ns", "k", 1, "old", ttl=5)
        clock.run_until(3)
        store.put("ns", "k", 1, "new", ttl=30)
        clock.run_until(6)  # the first put's deadline has passed
        assert store.sweep() == 0
        assert store.get("ns", "k")[0].value == "new"
