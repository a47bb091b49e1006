"""The named message/byte counters."""

from repro.util.stats import Counter


class TestCounter:
    def test_default_zero(self):
        assert Counter().get("nothing") == 0

    def test_add_accumulates(self):
        c = Counter()
        c.add("msgs")
        c.add("msgs", 4)
        assert c.get("msgs") == 5

    def test_as_dict_is_a_copy(self):
        c = Counter()
        c.add("x")
        d = c.as_dict()
        d["x"] = 100
        assert c.get("x") == 1

    def test_names_count_apart(self):
        c = Counter()
        c.add("msgs", 3)
        c.add("bytes", 120)
        assert (c.get("msgs"), c.get("bytes")) == (3, 120)
        assert c.as_dict() == {"msgs": 3, "bytes": 120}

    def test_repr_shows_the_counts(self):
        c = Counter()
        c.add("hops", 2)
        assert repr(c) == "Counter({'hops': 2})"
