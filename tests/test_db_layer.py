"""Relational substrate: types, schemas, catalog, tables, windows."""

import pytest

from repro.db.catalog import Catalog, TableDef
from repro.db.schema import Schema
from repro.db.table import LocalTable, make_fragment
from repro.db.types import ANY, BOOL, FLOAT, INT, STR, type_by_name
from repro.db import window as window_module
from repro.db.window import TimeWindow
from repro.util.errors import CatalogError
from repro.util.rng import SeededRng


class TestTypes:
    def test_coerce_int(self):
        assert INT.coerce("42") == 42
        assert INT.coerce(7) == 7

    def test_coerce_bool_to_int(self):
        assert INT.coerce(True) == 1
        assert isinstance(INT.coerce(True), int)

    def test_float_accepts_int(self):
        assert FLOAT.coerce(3) == 3

    def test_none_passes_all_types(self):
        for t in (INT, FLOAT, STR, BOOL, ANY):
            assert t.coerce(None) is None

    def test_coerce_failure_raises(self):
        with pytest.raises(CatalogError):
            INT.coerce("not a number")

    def test_any_accepts_objects(self):
        assert ANY.coerce({"weird": []}) == {"weird": []}

    def test_type_by_name_aliases(self):
        assert type_by_name("integer") is INT
        assert type_by_name("VARCHAR") is STR
        assert type_by_name("double") is FLOAT

    def test_type_by_name_unknown(self):
        with pytest.raises(CatalogError):
            type_by_name("blob")


class TestSchema:
    def make(self):
        return Schema.of(("a", INT), ("b", STR))

    def test_index_of(self):
        s = self.make()
        assert s.index_of("a") == 0
        assert s.index_of("b") == 1

    def test_unknown_column(self):
        with pytest.raises(CatalogError):
            self.make().index_of("zzz")

    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            Schema.of(("a", INT), ("a", STR))

    def test_qualify(self):
        q = self.make().qualify("t")
        assert q.names == ["t.a", "t.b"]

    def test_unqualified_lookup_through_qualifier(self):
        q = self.make().qualify("t")
        assert q.index_of("a") == 0

    def test_ambiguous_unqualified_lookup(self):
        joined = self.make().qualify("t1").concat(self.make().qualify("t2"))
        with pytest.raises(CatalogError):
            joined.index_of("a")
        assert joined.index_of("t2.a") == 2

    def test_concat(self):
        joined = self.make().concat(Schema.of(("c", FLOAT)))
        assert joined.names == ["a", "b", "c"]

    def test_project(self):
        projected = self.make().project(["b"])
        assert projected.names == ["b"]

    def test_coerce_row(self):
        assert self.make().coerce_row(("3", 7)) == (3, "7")

    def test_coerce_row_arity_check(self):
        with pytest.raises(CatalogError):
            self.make().coerce_row((1,))

    def test_row_from_dict_and_back(self):
        s = self.make()
        row = s.row_from_dict({"a": 1, "b": "x"})
        assert row == (1, "x")

    def test_row_from_dict_missing_column(self):
        with pytest.raises(CatalogError):
            self.make().row_from_dict({"a": 1})

    def test_equality(self):
        assert self.make() == self.make()
        assert self.make() != self.make().qualify("t")


class TestCatalog:
    def test_define_lookup(self):
        c = Catalog()
        td = c.define(TableDef("t", Schema.of(("a", INT))))
        assert c.lookup("t") is td
        assert c.has_table("t")

    def test_duplicate_rejected(self):
        c = Catalog()
        c.define(TableDef("t", Schema.of(("a", INT))))
        with pytest.raises(CatalogError):
            c.define(TableDef("t", Schema.of(("a", INT))))

    def test_unknown_lookup(self):
        with pytest.raises(CatalogError):
            Catalog().lookup("ghost")

    def test_dht_table_needs_partition_key(self):
        with pytest.raises(CatalogError):
            TableDef("t", Schema.of(("a", INT)), source="dht")

    def test_partition_key_must_exist(self):
        with pytest.raises(CatalogError):
            TableDef("t", Schema.of(("a", INT)), source="dht", partition_key="zz")

    def test_unknown_source_kind(self):
        with pytest.raises(CatalogError):
            TableDef("t", Schema.of(("a", INT)), source="magnetic_tape")


class TestLocalTable:
    def make(self):
        return LocalTable(TableDef("t", Schema.of(("a", INT), ("b", STR))))

    def test_insert_positional_and_dict(self):
        t = self.make()
        t.insert((1, "x"))
        t.insert({"a": 2, "b": "y"})
        assert t.scan() == [(1, "x"), (2, "y")]

    def test_insert_coerces(self):
        t = self.make()
        t.insert(("5", 9))
        assert t.scan() == [(5, "9")]

    def test_len_and_clear(self):
        t = self.make()
        t.insert((1, "a"))
        assert len(t) == 1
        t.clear()
        assert len(t) == 0


class TestTimeWindow:
    def make(self, horizon=10.0):
        return TimeWindow(TableDef(
            "s", Schema.of(("v", FLOAT)), source="stream", window=horizon,
        ))

    def test_append_and_scan(self):
        w = self.make()
        w.append(1.0, (0.5,))
        w.append(2.0, (1.5,))
        assert w.scan() == [(0.5,), (1.5,)]

    def test_scan_window_half_open(self):
        w = self.make()
        for t in (1.0, 2.0, 3.0, 4.0):
            w.append(t, (t,))
        # (1, 3] includes 2 and 3, not 1 or 4.
        assert w.scan_window(1.0, 3.0) == [(2.0,), (3.0,)]

    def test_evict(self):
        w = self.make()
        w.append(1.0, (1.0,))
        w.append(5.0, (5.0,))
        assert w.evict_older_than(3.0) == 1
        assert w.scan() == [(5.0,)]

    def test_out_of_order_clamped(self):
        w = self.make()
        w.append(5.0, (5.0,))
        w.append(3.0, (3.0,))  # late arrival
        assert len(w) == 2
        # Still scannable in the current window.
        assert len(w.scan_window(4.0, 6.0)) == 2

    def test_latest(self):
        w = self.make()
        assert w.latest() is None
        w.append(2.0, (7.0,))
        assert w.latest() == (2.0, (7.0,))

    def test_exact_rows_are_stored_as_they_came_others_coerced(self):
        w = TimeWindow(TableDef(
            "s", Schema.of(("k", INT), ("v", FLOAT), ("tag", STR)),
            source="stream", window=10.0,
        ))
        exact = (1, 2.0, "a")
        assert w.append(1.0, exact) is exact
        # bool in an INT column, int in a FLOAT one, a list, a dict, a
        # NULL: every one goes through the schema, as it always did.
        assert w.append(1.0, (True, 2.0, "a")) == (1, 2.0, "a")
        assert type(w.scan()[-1][0]) is int
        assert w.append(1.0, (1, 2, "a")) == (1, 2, "a")
        assert w.append(1.0, [1, "2.5", 3]) == (1, 2.5, "3")
        assert w.append(1.0, {"k": 1, "v": 2.0, "tag": "a"}) == exact
        assert w.append(1.0, (None, 2.0, "a")) == (None, 2.0, "a")
        with pytest.raises(CatalogError):
            w.append(1.0, (1, 2.0))
        with pytest.raises(CatalogError):
            w.append(1.0, (1, 2.0, "a", "extra"))
        assert len(w) == 6

    @pytest.mark.parametrize("seed", range(8))
    def test_log_against_a_naive_list_model(self, seed, monkeypatch):
        """Random appends -- ties, late stamps (clamped), explicit past
        and future stamps, bursts and silences -- against a list of
        everything ever appended. Every read hides what is older than
        the newest stamp minus the horizon, and the log itself holds at
        most one eviction chunk more than that."""
        chunk = 8
        monkeypatch.setattr(window_module, "_EVICT_CHUNK", chunk)
        rng = SeededRng(seed, "time-window-model")
        horizon = rng.choice([3.0, 10.0, 25.0])
        w = self.make(horizon)
        model = []  # (clamped stamp, row), never evicted
        now = 0.0
        for i in range(600):
            step = rng.choice([0.0, 0.0, 0.1, 0.5, 1.0, rng.uniform(0, 4)])
            if rng.random() < 0.02:
                step = 3 * horizon  # a silence that kills everything
            now += step
            stamp = now
            kind = rng.random()
            if kind < 0.15:
                stamp = now - rng.uniform(0, 2 * horizon)  # late: clamped
            elif kind < 0.18:
                stamp = now + rng.uniform(0, 2.0)  # ahead of the clock
            row = (float(i),)
            w.append(stamp, row)
            newest = max(stamp, model[-1][0]) if model else stamp
            model.append((newest, row))
            live = [(t, r) for t, r in model if t >= newest - horizon]

            assert w.latest() == model[-1]
            assert len(w) == len(live)
            assert w.scan() == [r for _t, r in live]
            assert w.end == len(model)
            assert w.first_live() == len(model) - len(live)
            assert len(w._rows) == len(w._stamps) <= len(live) + chunk
            assert w.base + len(w._rows) == len(model)
            # Window edges: lo exclusive, hi inclusive, on stamps that
            # exist (ties included) and between them.
            stamps = [t for t, _r in model]
            for _ in range(3):
                lo, hi = sorted((
                    rng.choice(stamps) if rng.random() < 0.6
                    else rng.uniform(-1.0, newest + 1.0)
                    for _ in range(2)))
                want = [r for t, r in live if lo < t <= hi]
                assert w.scan_window(lo, hi) == want
            assert w.seq_after(newest) == len(model)
            cut = rng.choice(stamps[-20:])
            first_later = sum(1 for t in stamps if t <= cut)
            if first_later >= w.base:
                assert w.seq_after(cut) == first_later
        assert w.base > 0  # the front really was cut

    def test_make_fragment_dispatch(self):
        stream_def = TableDef("s", Schema.of(("v", FLOAT)), source="stream", window=5)
        local_def = TableDef("l", Schema.of(("v", FLOAT)))
        assert isinstance(make_fragment(stream_def), TimeWindow)
        assert isinstance(make_fragment(local_def), LocalTable)

    def test_stream_without_window_rejected(self):
        bad = TableDef("s", Schema.of(("v", FLOAT)), source="stream")
        with pytest.raises(CatalogError):
            make_fragment(bad)
