"""Bloom filters, used by PIER's Bloom-join and by hybrid search.

A Bloom join ships a compact filter of one relation's join keys to the
other relation's sites so that non-matching tuples are dropped *before*
the expensive rehash -- the classic distributed-join bandwidth saver.

The implementation is a bit array backed by a single Python int (cheap,
and union is one ``|``). Hash functions are double-hashing over SHA-1,
the standard Kirsch-Mitzenmacher construction.
"""

import math

from repro.util.ids import sha1_id


class BloomFilter:
    """A fixed-size Bloom filter over arbitrary hashable items."""

    def __init__(self, num_bits, num_hashes):
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = 0
        self._count = 0

    @classmethod
    def for_capacity(cls, capacity, false_positive_rate=0.01):
        """Size a filter for ``capacity`` items at a target FP rate."""
        capacity = max(1, capacity)
        ln2 = math.log(2)
        num_bits = max(8, int(-capacity * math.log(false_positive_rate) / (ln2 * ln2)))
        num_hashes = max(1, round((num_bits / capacity) * ln2))
        return cls(num_bits, num_hashes)

    def _positions(self, item):
        digest = sha1_id(("bloom", item))
        h1 = digest & 0xFFFFFFFFFFFFFFFF
        # The double-hashing stride must be coprime with num_bits or the
        # probes cycle through only num_bits/gcd slots (an odd stride is
        # only enough when num_bits is a power of two). Nudge the stride
        # to the next coprime value; for any geometry this terminates
        # quickly (some value in [h2, h2 + a few] is always coprime).
        h2 = ((digest >> 64) & 0xFFFFFFFFFFFFFFFF) % self.num_bits or 1
        while math.gcd(h2, self.num_bits) != 1:
            h2 += 1
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def add(self, item):
        for pos in self._positions(item):
            self._bits |= 1 << pos
        self._count += 1

    def __contains__(self, item):
        return all(self._bits >> pos & 1 for pos in self._positions(item))

    def union(self, other):
        """Merge another filter of identical geometry into this one."""
        if (self.num_bits, self.num_hashes) != (other.num_bits, other.num_hashes):
            raise ValueError("cannot union Bloom filters of different geometry")
        merged = BloomFilter(self.num_bits, self.num_hashes)
        merged._bits = self._bits | other._bits
        merged._count = self._count + other._count
        return merged

    def size_bytes(self):
        """Wire size if serialized as a packed bit array."""
        return (self.num_bits + 7) // 8

    def wire_size(self):
        """Honest byte accounting for the simulator's transport."""
        return 12 + self.size_bytes()

    def __len__(self):
        return self._count

    def __repr__(self):
        return "BloomFilter(bits={}, hashes={}, items={})".format(
            self.num_bits, self.num_hashes, self._count
        )
