"""Runtime statistics catalog: what admission control plans against.

The schema catalog (:mod:`repro.db.catalog`) says what tables *are*;
this module tracks what they *do*: per-table arrival rates and row
sizes observed from the live append stream, plus per-query-shape group
cardinalities fed back from closed epochs. The cost bounder
(:func:`repro.core.admission.bound_query_cost`) reads these to estimate
a query's per-epoch rows scanned, exchange bytes, and owner fold work
before a single row moves, and the admission policy
(:mod:`repro.core.admission`) decides from that bound.

One :class:`StatsCatalog` serves the whole testbed: it hangs off the
shared schema :class:`~repro.db.catalog.Catalog` (``catalog.stats``,
attached by ``PierNetwork``), so every engine's ``stream_append`` and
the coordinator's epoch-close feedback update the same view the
cost bounder reads. All methods take ``now`` explicitly -- the catalog
holds no clock, which keeps it trivially unit-testable.

Rates are bucketed EWMAs: appends accumulate in a fixed-width bucket
(``RATE_BUCKET``), and each rollover folds ``count / RATE_BUCKET`` into
the running rate with weight ``RATE_ALPHA``. A half-full current
bucket never skews the estimate downward because it is only folded
once it closes; before the first rollover the partial bucket itself is
the (best-effort) estimate. :meth:`seed` lets tests and cold-start deployments declare
rates up front -- admission decisions are only as good as the stats,
and a fresh catalog admits everything (no rate means a zero bound).
"""

RATE_BUCKET = 5.0  # seconds
RATE_ALPHA = 0.5


def query_stats_key(lq):
    """The key group-cardinality feedback files under: the scanned
    tables plus the canonical GROUP BY shape. Different predicates over
    the same grouping share one cardinality estimate -- coarse, but the
    feedback loop converges on whatever actually closes epochs."""
    if not lq.tables:
        return None
    tables = ",".join(sorted(name for name, _alias in lq.tables))
    groups = ";".join(str(e) for e in lq.group_by)
    return "{}|{}".format(tables, groups)


class _BucketedRate:
    """EWMA of an event rate, observed through fixed-width buckets."""

    __slots__ = ("rate", "_count", "_t0", "_seeded")

    def __init__(self):
        self.rate = 0.0  # events/sec, EWMA over closed buckets
        self._count = 0.0
        self._t0 = None
        self._seeded = False

    def seed(self, rate):
        self.rate = float(rate)
        self._seeded = True

    def note(self, n, now):
        if self._t0 is None:
            self._t0 = now
        elif now - self._t0 >= RATE_BUCKET:
            self._roll(now)
        self._count += n

    def _roll(self, now):
        # Fold every *elapsed* bucket: a long silent gap contributes
        # zero-rate buckets, so the estimate decays instead of pinning
        # at the last busy bucket's rate.
        while now - self._t0 >= RATE_BUCKET:
            observed = self._count / RATE_BUCKET
            if self._seeded or self.rate > 0.0:
                self.rate += RATE_ALPHA * (observed - self.rate)
            else:
                self.rate = observed
            self._seeded = True
            self._count = 0.0
            self._t0 += RATE_BUCKET

    def value(self, now=None):
        if now is not None and self._t0 is not None:
            if now - self._t0 >= RATE_BUCKET:
                self._roll(now)
            elif not self._seeded and now > self._t0 and self._count:
                # Cold start, mid-bucket: the partial bucket is all we
                # have; use it rather than claiming a zero rate.
                return self._count / (now - self._t0)
        return self.rate


class TableStats:
    """Observed behaviour of one table's append stream."""

    __slots__ = ("rate", "row_bytes")

    def __init__(self):
        self.rate = _BucketedRate()
        self.row_bytes = 0.0  # EWMA of serialized row size


class StatsCatalog:
    """Shared arrival-rate / cardinality view for planning and admission.

    ``note_append`` is the hot-path hook (every ``stream_append`` on
    every engine lands here); ``note_group_count`` is the feedback
    loop (the coordinator reports each closed aggregate epoch's group
    count under the plan's ``stats_key``).
    """

    def __init__(self):
        self._tables = {}  # table name -> TableStats
        self._groups = {}  # stats key -> EWMA group cardinality

    def _table(self, table):
        stats = self._tables.get(table)
        if stats is None:
            stats = self._tables[table] = TableStats()
        return stats

    # -- ingestion ------------------------------------------------------
    def note_append(self, table, nbytes, now):
        stats = self._tables.get(table) or self._table(table)
        stats.rate.note(1, now)
        # A fixed-width table repeats one size: the EWMA sits on it.
        if nbytes != stats.row_bytes:
            if stats.row_bytes == 0.0:
                stats.row_bytes = float(nbytes)
            else:
                stats.row_bytes += 0.2 * (nbytes - stats.row_bytes)

    def note_group_count(self, stats_key, n):
        prev = self._groups.get(stats_key)
        if prev is None:
            self._groups[stats_key] = float(n)
        else:
            self._groups[stats_key] = prev + 0.5 * (n - prev)

    # -- seeding (cold start / tests) ----------------------------------
    def seed(self, table, rate=None, row_bytes=None):
        stats = self._table(table)
        if rate is not None:
            stats.rate.seed(rate)
        if row_bytes is not None:
            stats.row_bytes = float(row_bytes)

    def seed_groups(self, stats_key, n):
        self._groups[stats_key] = float(n)

    # -- cost-bounder reads --------------------------------------------
    def arrival_rate(self, table, now=None):
        """Observed appends/sec for ``table`` (0.0 when never seen)."""
        stats = self._tables.get(table)
        return stats.rate.value(now) if stats is not None else 0.0

    def avg_row_bytes(self, table, default=48.0):
        stats = self._tables.get(table)
        if stats is None or stats.row_bytes == 0.0:
            return default
        return stats.row_bytes

    def group_cardinality(self, stats_key, default=None):
        value = self._groups.get(stats_key)
        return value if value is not None else default

    def __repr__(self):
        return "StatsCatalog({} tables, {} group keys)".format(
            len(self._tables), len(self._groups)
        )
