"""Bloom filter invariants: no false negatives, geometric union."""

import pytest
from hypothesis import given, strategies as st

from repro.util.bloom import BloomFilter


def fill_ratio(bf):
    """Fraction of the filter's bits set."""
    return bin(bf._bits).count("1") / bf.num_bits


class TestConstruction:
    def test_rejects_nonpositive_bits(self):
        with pytest.raises(ValueError):
            BloomFilter(0, 3)

    def test_rejects_nonpositive_hashes(self):
        with pytest.raises(ValueError):
            BloomFilter(64, 0)

    def test_for_capacity_sizes_up_with_capacity(self):
        small = BloomFilter.for_capacity(10, 0.01)
        large = BloomFilter.for_capacity(10000, 0.01)
        assert large.num_bits > small.num_bits

    def test_for_capacity_sizes_up_with_precision(self):
        loose = BloomFilter.for_capacity(1000, 0.1)
        tight = BloomFilter.for_capacity(1000, 0.001)
        assert tight.num_bits > loose.num_bits


class TestMembership:
    @given(st.lists(st.text(), max_size=200))
    def test_no_false_negatives(self, items):
        bf = BloomFilter.for_capacity(max(1, len(items)))
        for item in items:
            bf.add(item)
        for item in items:
            assert item in bf

    def test_tuples_as_items(self):
        bf = BloomFilter.for_capacity(16)
        bf.add(("k", 1))
        assert ("k", 1) in bf
        assert ("k", 2) not in bf

    def test_false_positive_rate_reasonable(self):
        bf = BloomFilter.for_capacity(1000, 0.02)
        for i in range(1000):
            bf.add(("present", i))
        false_positives = sum(
            1 for i in range(5000) if ("absent", i) in bf
        )
        # Allow generous slack over the nominal 2%.
        assert false_positives / 5000 < 0.06

    def test_empty_filter_rejects_everything(self):
        bf = BloomFilter(256, 4)
        assert "anything" not in bf


class TestUnion:
    def test_union_contains_both_sides(self):
        a = BloomFilter(256, 4)
        b = BloomFilter(256, 4)
        a.add("x")
        b.add("y")
        merged = a.union(b)
        assert "x" in merged and "y" in merged

    def test_union_requires_same_geometry(self):
        a = BloomFilter(256, 4)
        b = BloomFilter(128, 4)
        with pytest.raises(ValueError):
            a.union(b)

    def test_union_counts_items(self):
        a = BloomFilter(256, 4)
        b = BloomFilter(256, 4)
        a.add("x")
        b.add("y")
        b.add("z")
        assert len(a.union(b)) == 3

    @given(st.lists(st.integers(), max_size=50), st.lists(st.integers(), max_size=50))
    def test_union_equals_adding_everything(self, left, right):
        a = BloomFilter(512, 4)
        b = BloomFilter(512, 4)
        both = BloomFilter(512, 4)
        for item in left:
            a.add(item)
            both.add(item)
        for item in right:
            b.add(item)
            both.add(item)
        assert a.union(b)._bits == both._bits


class TestStrideCoverage:
    """Double-hashing must probe the whole table for *every* geometry.

    The stride only walks all ``num_bits`` slots when it is coprime
    with ``num_bits``; an odd stride alone is not enough unless
    ``num_bits`` is a power of two (e.g. stride 9 over 12 bits cycles
    through just 4 slots).
    """

    @pytest.mark.parametrize("num_bits", [2, 3, 4, 6, 9, 12, 15, 16, 21, 63])
    def test_probes_cover_all_slots(self, num_bits):
        bf = BloomFilter(num_bits, num_bits)
        for item in range(32):
            positions = set(bf._positions(item))
            assert positions == set(range(num_bits))

    @given(st.lists(st.integers(), max_size=100))
    def test_no_false_negatives_awkward_geometry(self, items):
        bf = BloomFilter(45, 7)  # 45 = 3^2 * 5: rich in odd factors
        for item in items:
            bf.add(item)
        for item in items:
            assert item in bf

    def test_awkward_geometry_fp_rate_not_degenerate(self):
        # With a gcd-3 stride two-thirds of a 129-bit table was never
        # probed, tripling the effective load factor. Full coverage
        # keeps the measured FP rate near the design point.
        bf = BloomFilter(129, 3)  # 129 = 3 * 43
        for i in range(30):
            bf.add(("present", i))
        assert fill_ratio(bf) > 0.4  # probes spread across the table
        false_positives = sum(
            1 for i in range(2000) if ("absent", i) in bf
        )
        assert false_positives / 2000 < 0.35


class TestSizing:
    def test_size_bytes_matches_bits(self):
        assert BloomFilter(256, 4).size_bytes() == 32
        assert BloomFilter(257, 4).size_bytes() == 33

    def test_fill_ratio_grows(self):
        bf = BloomFilter(128, 3)
        assert fill_ratio(bf) == 0.0
        bf.add("a")
        first = fill_ratio(bf)
        for i in range(50):
            bf.add(i)
        assert fill_ratio(bf) > first
