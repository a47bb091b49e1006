"""Wide-area latency models.

PlanetLab spans five continents; pairwise RTTs in 2004 ranged from ~1 ms
(same site) to ~300 ms (trans-Pacific). :class:`GeoLatency` reproduces
that structure by placing sites on a 2-D plane whose Euclidean distance
maps to one-way delay, plus lognormal jitter. The simpler models exist
for unit tests and for experiments where latency is not the variable
under study.
"""


class LatencyModel:
    """Interface: one-way delay in seconds for a (src, dst) pair, and a
    region directory that, unless overridden, labels no one."""

    def delay(self, src, dst):
        raise NotImplementedError

    def region_of(self, address):
        return None

    def members(self, region):
        return []


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``seconds`` -- useful in unit tests."""

    def __init__(self, seconds=0.01):
        if seconds < 0:
            raise ValueError("latency cannot be negative")
        self.seconds = seconds

    def delay(self, src, dst):
        return self.seconds


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from ``[lo, hi]`` per message."""

    def __init__(self, lo, hi, rng):
        if not 0 <= lo <= hi:
            raise ValueError("need 0 <= lo <= hi")
        self.lo = lo
        self.hi = hi
        self._rng = rng

    def delay(self, src, dst):
        return self._rng.uniform(self.lo, self.hi)


class GeoLatency(LatencyModel):
    """Coordinate-based wide-area delay.

    Each address is assigned a point in a unit square (set via
    :meth:`place`); one-way delay is ``base + scale * distance`` with
    multiplicative lognormal jitter. With ``scale=0.15`` the worst-case
    one-way delay is ~110 ms, matching intercontinental PlanetLab paths.
    """

    def __init__(self, rng, base=0.002, scale=0.15, jitter_sigma=0.2):
        self._rng = rng
        self.base = base
        self.scale = scale
        self.jitter_sigma = jitter_sigma
        self._coords = {}

    def place(self, address, x, y):
        """Pin ``address`` at coordinates ``(x, y)`` in the unit square."""
        self._coords[address] = (x, y)

    def place_random(self, address):
        self.place(address, self._rng.random(), self._rng.random())

    def delay(self, src, dst):
        a = self._coords.get(src)
        b = self._coords.get(dst)
        if a is None or b is None:
            # Unplaced nodes still communicate; give them a median path.
            distance = 0.5
        else:
            distance = ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) ** 0.5
        jitter = self._rng.lognormvariate(0.0, self.jitter_sigma)
        return (self.base + self.scale * distance) * jitter


class RegionalLatency(LatencyModel):
    """Region-labelled wide-area delay.

    Nodes are assigned to named regions (data centers / continents);
    an intra-region pair sees a rack-scale path (~1-5 ms one-way) while
    a cross-region pair pays a backbone link (~80-150 ms one-way) whose
    base is drawn once per unordered region pair, so the same two
    regions always share the same backbone distance. Multiplicative
    lognormal jitter sits on top of both, as in :class:`GeoLatency`.

    This is the topology model the region-aware execution stack
    (proximity routing, per-region aggregation trees) is measured on:
    the region label is also what ``SimNode`` and the overlay read via
    :meth:`region_of`, standing in for the proximity/coordinate service
    a real deployment would consult.
    """

    def __init__(self, rng, regions=None, intra=(0.001, 0.005),
                 cross=(0.080, 0.150), jitter_sigma=0.2):
        self._rng = rng
        self.intra = intra
        self.cross = cross
        self.jitter_sigma = jitter_sigma
        self._regions = {}  # address -> region label
        self._pair_base = {}  # frozenset({ra, rb}) -> backbone base delay
        self._intra_base = {}  # region -> local base delay
        if regions:
            for address, region in regions.items():
                self.assign(address, region)

    def assign(self, address, region):
        """Label ``address`` as living in ``region``."""
        self._regions[address] = region

    def region_of(self, address):
        return self._regions.get(address)

    def regions(self):
        """Sorted list of distinct region labels."""
        return sorted(set(self._regions.values()))

    def members(self, region):
        """Addresses assigned to ``region``, in assignment order."""
        return [a for a, r in self._regions.items() if r == region]

    def _base(self, ra, rb):
        if ra == rb:
            base = self._intra_base.get(ra)
            if base is None:
                base = self._intra_base[ra] = self._rng.uniform(*self.intra)
            return base
        pair = frozenset((ra, rb))
        base = self._pair_base.get(pair)
        if base is None:
            base = self._pair_base[pair] = self._rng.uniform(*self.cross)
        return base

    def delay(self, src, dst):
        ra = self._regions.get(src)
        rb = self._regions.get(dst)
        if ra is None or rb is None:
            # Unlabelled nodes get a median backbone path.
            base = sum(self.cross) / 2.0
        else:
            base = self._base(ra, rb)
        return base * self._rng.lognormvariate(0.0, self.jitter_sigma)
