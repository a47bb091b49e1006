"""Mergeable sketch summaries: Count-Min and HyperLogLog.

Exact distributed aggregation of COUNT DISTINCT and top-k frequency
queries ships the underlying value sets around (PIER did the same --
see :class:`~repro.core.aggregates.CountDistinct`), so partial-state
size grows with the data. Sketches bound it: a Count-Min sketch answers
frequency (and thus heavy-hitter) queries in ``depth x width`` counters
with one-sided error ``+/- eps * N`` (``eps = e / width``) at
confidence ``1 - delta`` (``delta = e ** -depth``); a HyperLogLog
estimates distinct counts in ``2 ** p`` single-byte registers with
relative standard error ``~1.04 / sqrt(2 ** p)``.

Both are *algebraic* in the sense aggregation trees need: ``merge`` of
two sketches over disjoint (or overlapping, for HLL) inputs equals the
sketch of the combined input, and merging is associative and
commutative, so per-hop combining and pane partials both work: a paned
window re-merges its live pane sketches, O(panes) constant-size merges
per epoch where the exact set-based aggregate re-merges O(distinct
values).

Instances are behaviourally immutable, like every aggregate state in
this codebase: ``add`` and ``merge`` return new sketches and never
mutate their receiver, so a partial that was already emitted (the sim
ships object references, not serialized copies) can never be corrupted
by later folds. Hashing is SHA-1 via :func:`repro.util.ids.sha1_id`,
so sketches are deterministic across nodes and runs -- two nodes
sketching the same values produce identical registers, which the
property tests rely on.
"""

import math

from repro.util.ids import sha1_id


class CountMinSketch:
    """A ``depth x width`` counter matrix for approximate frequencies.

    ``estimate(x)`` never under-counts; it over-counts by at most
    ``(e / width) * total`` with probability ``>= 1 - e ** -depth``.
    """

    __slots__ = ("depth", "width", "rows", "total")

    def __init__(self, depth=4, width=256, rows=None, total=0):
        if depth <= 0 or width <= 0:
            raise ValueError("depth and width must be positive")
        self.depth = depth
        self.width = width
        self.rows = rows if rows is not None else ((0,) * width,) * depth
        self.total = total  # sum of all added counts (error-bound N)

    def _columns(self, item):
        digest = sha1_id(("cm", item))
        for d in range(self.depth):
            yield (digest >> (32 * d)) % self.width

    def add(self, item, count=1):
        """A new sketch with ``count`` occurrences of ``item`` folded in."""
        rows = []
        for row, col in zip(self.rows, self._columns(item)):
            updated = list(row)
            updated[col] += count
            rows.append(tuple(updated))
        return CountMinSketch(self.depth, self.width, tuple(rows),
                              self.total + count)

    def estimate(self, item):
        """Estimated frequency of ``item`` (never below the truth)."""
        return min(row[col] for row, col in zip(self.rows, self._columns(item)))

    def merge(self, other):
        """Counter-wise sum: the sketch of the combined input."""
        self._check_geometry(other)
        rows = tuple(
            tuple(a + b for a, b in zip(mine, theirs))
            for mine, theirs in zip(self.rows, other.rows)
        )
        return CountMinSketch(self.depth, self.width, rows,
                              self.total + other.total)

    def _check_geometry(self, other):
        if (self.depth, self.width) != (other.depth, other.width):
            raise ValueError("cannot combine Count-Min sketches of "
                             "different geometry")

    @property
    def epsilon(self):
        """Per-estimate error factor: estimates are within eps * total."""
        return math.e / self.width

    def wire_size(self):
        """Counters as 4-byte ints plus a small header."""
        return 16 + 4 * self.depth * self.width

    def __len__(self):
        return self.total

    def __repr__(self):
        return "CountMinSketch(depth={}, width={}, total={})".format(
            self.depth, self.width, self.total
        )


class HyperLogLog:
    """Distinct-count estimator over ``2 ** p`` one-byte registers."""

    __slots__ = ("p", "registers")

    def __init__(self, p=10, registers=None):
        if not 4 <= p <= 16:
            raise ValueError("precision p must be in [4, 16]")
        self.p = p
        self.registers = (registers if registers is not None
                          else bytes(1 << p))

    def add(self, item):
        """A new HLL with ``item`` observed (idempotent per value)."""
        digest = sha1_id(("hll", item))
        index = digest & ((1 << self.p) - 1)
        # Rank of the remaining bits: position of the first set bit.
        rest = (digest >> self.p) & ((1 << 64) - 1)
        rank = 1 if rest == 0 else 65 - rest.bit_length()
        if self.registers[index] >= rank:
            return self
        updated = bytearray(self.registers)
        updated[index] = rank
        return HyperLogLog(self.p, bytes(updated))

    def merge(self, other):
        """Register-wise max: the HLL of the union of both inputs."""
        if self.p != other.p:
            raise ValueError("cannot merge HLLs of different precision")
        regs = bytes(max(a, b) for a, b in zip(self.registers, other.registers))
        return HyperLogLog(self.p, regs)

    def estimate(self):
        """Bias-corrected cardinality estimate (Flajolet et al. 2007)."""
        m = 1 << self.p
        total = 0.0
        zeros = 0
        for r in self.registers:
            total += 2.0 ** -r
            if r == 0:
                zeros += 1
        alpha = 0.7213 / (1.0 + 1.079 / m)
        raw = alpha * m * m / total
        if raw <= 2.5 * m and zeros:
            return m * math.log(m / zeros)  # linear counting, small range
        return raw

    @property
    def relative_error(self):
        """Standard relative error of :meth:`estimate`."""
        return 1.04 / math.sqrt(1 << self.p)

    def wire_size(self):
        return 8 + (1 << self.p)

    def __repr__(self):
        occupied = sum(1 for r in self.registers if r)
        return "HyperLogLog(p={}, occupied={})".format(self.p, occupied)
