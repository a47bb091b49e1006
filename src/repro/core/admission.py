"""Admission control: refuse or degrade queries whose cost bound explodes.

PIQL-style success tolerance for standing queries. This module owns
pricing: :func:`bound_query_cost` bounds what a LogicalQuery would cost
per second against current catalog stats (``core/catalog.py``), and
when the network carries an :class:`AdmissionPolicy`,
``PierNetwork.compile_sql`` prices each query once, at ``now``, before
it is planned; the planner never prices. Queries within the budget are
admitted untouched. Over-budget
queries walk a degradation ladder, cheapest honest answer first:

1. **sketch swap** -- ``COUNT(DISTINCT x)`` becomes
   ``APPROX_COUNT_DISTINCT(x)``: the per-group value set (whose wire
   size grows with distinct values) becomes a constant-size HLL with a
   documented ~1.04/sqrt(2^precision) relative error;
2. **widen EVERY** -- doubling the epoch period (up to
   ``MAX_EVERY_FACTOR``) amortizes the per-epoch group-fold and
   exchange terms; the answer stays exact, just less frequent;
3. **sample** -- scans keep only a deterministic hash-sampled fraction
   of rows (``options["sample_rate"]``, floored at
   ``MIN_SAMPLE_RATE``), trading answer fidelity for load. Applied
   last because its error, unlike the sketch's, carries no bound.

Every applied step is recorded in the decision (and stamped into
``plan.metadata["admission"]`` by the network layer) so the answer is
*labeled* approximate -- a degraded query is never silently wrong. A
query still over budget after the full ladder raises
:class:`AdmissionError` with the offending bound, which is the
refusal the caller can surface.

The ladder mutates the LogicalQuery *before* signatures are taken, so
a degraded query's share/prefix signatures reflect what actually runs
(a sampled query never shares a spine with its unsampled twin).
"""

from repro.core.catalog import query_stats_key
from repro.core.logical import AggCall
from repro.util.errors import PierError

# Ladder bounds: widening stops at 4x the requested EVERY, sampling at
# a 5% keep rate.
MAX_EVERY_FACTOR = 4.0
MIN_SAMPLE_RATE = 0.05

#: Nominal state-size multipliers for the exchange-byte bound. A
#: COUNT(DISTINCT x) partial carries the group's value *set*, so its
#: wire size grows with distinct values per group; the sketch swap
#: (APPROX_COUNT_DISTINCT) replaces it with a constant-size HLL whose
#: error is documented at ~1.04/sqrt(2^precision). The factors are
#: deliberately coarse -- this is a *bound* used to refuse or degrade
#: queries, not a cardinality estimator.
_DISTINCT_STATE_FACTOR = 32.0
_SKETCH_STATE_FACTOR = 4.0

#: Nominal fan-in for the partial-aggregation exchange bound: with
#: per-node partial aggregation, at most ~this many contributing nodes
#: ship each group per epoch (flush waves x tree combining), so
#: exchange rows are bounded by ``groups * fan-in`` when the group
#: cardinality is known, whatever the raw row rate.
_GROUP_FANIN = 16.0

#: Unit weights for the scalar budget: one unit per row scanned, per
#: 64 exchange bytes, and two per owner group fold, all per second.
_W_EXCHANGE_BYTES = 1.0 / 64.0
_W_FOLD = 2.0


class CostBound:
    """Per-epoch cost bound for a continuous query, from catalog stats.

    ``rows_scanned`` is the standing-scan examination bound (stream
    subscriptions touch each arriving row O(1) times, so it is
    ``sum(table arrival rate) * EVERY``); ``exchange_rows`` /
    ``exchange_bytes`` bound what crosses the network per epoch after
    partial aggregation and sampling; ``fold_groups`` bounds owner-side
    group folds per epoch. ``units_per_sec`` collapses them into the
    scalar the admission budget is expressed in -- amortized over the
    epoch period, so widening EVERY genuinely cheapens group-bound
    queries (their per-epoch group fold and exchange terms amortize)
    while the raw scan-rate term stays put.
    """

    __slots__ = ("rows_scanned", "exchange_rows", "exchange_bytes",
                 "fold_groups", "every")

    def __init__(self, rows_scanned, exchange_rows, exchange_bytes,
                 fold_groups, every):
        self.rows_scanned = rows_scanned
        self.exchange_rows = exchange_rows
        self.exchange_bytes = exchange_bytes
        self.fold_groups = fold_groups
        self.every = every

    def units_per_sec(self):
        per_epoch = (
            self.rows_scanned
            + self.exchange_bytes * _W_EXCHANGE_BYTES
            + self.fold_groups * _W_FOLD
        )
        return per_epoch / self.every

    def as_dict(self):
        return {
            "rows_scanned": round(self.rows_scanned, 2),
            "exchange_rows": round(self.exchange_rows, 2),
            "exchange_bytes": round(self.exchange_bytes, 2),
            "fold_groups": round(self.fold_groups, 2),
            "every": self.every,
            "units_per_sec": round(self.units_per_sec(), 2),
        }


def _distinct_flavor(lq):
    """Which COUNT_DISTINCT family the query uses, if any."""
    for item, _name in lq.select_items:
        if not isinstance(item, AggCall):
            continue
        if item.func_name == "COUNT_DISTINCT":
            return "exact"
        if item.func_name == "APPROX_COUNT_DISTINCT":
            return "sketch"
    return None


def bound_query_cost(lq, catalog, now=None):
    """Bound ``lq``'s per-epoch cost from the catalog's runtime stats.

    Returns a :class:`CostBound`, or ``None`` when the query is not
    continuous (one-shots are a single epoch of work; the standing load
    problem admission exists for does not arise -- which is also why the
    get access path, one-shot only, is not priced here) or the catalog carries
    no :class:`~repro.core.catalog.StatsCatalog`. Tables the stats have
    never seen contribute zero -- a cold catalog admits everything,
    which is the honest default (see ``StatsCatalog.seed``).
    """
    if lq.every is None:
        return None
    stats = catalog.stats
    if stats is None:
        return None
    rate = 0.0
    row_bytes = 0.0
    for name, _alias in lq.tables:
        table_rate = stats.arrival_rate(name, now)
        rate += table_rate
        row_bytes = max(row_bytes, stats.avg_row_bytes(name))
    rows_scanned = rate * lq.every
    sample = float(lq.options.get("sample_rate", 1.0))
    exchange_rows = rows_scanned * sample
    fold_groups = exchange_rows
    if lq.group_by:
        groups = stats.group_cardinality(query_stats_key(lq))
        if groups is not None:
            exchange_rows = min(exchange_rows, groups * _GROUP_FANIN)
            fold_groups = min(fold_groups, groups * _GROUP_FANIN)
    state_factor = 1.0
    flavor = _distinct_flavor(lq)
    if flavor == "exact":
        state_factor = _DISTINCT_STATE_FACTOR
    elif flavor == "sketch":
        state_factor = _SKETCH_STATE_FACTOR
    exchange_bytes = exchange_rows * row_bytes * state_factor
    return CostBound(rows_scanned, exchange_rows, exchange_bytes,
                     fold_groups, lq.every)


class AdmissionError(PierError):
    """The query's cost bound exceeds the budget even fully degraded."""

    def __init__(self, message, bound=None, budget=None):
        super().__init__(message)
        self.bound = bound
        self.budget = budget


class AdmissionDecision:
    """What admission did to one query."""

    __slots__ = ("admitted", "degradations", "bound", "budget")

    def __init__(self, admitted, degradations, bound, budget):
        self.admitted = admitted
        self.degradations = degradations  # [{kind, ...label fields}]
        self.bound = bound  # CostBound after degradation (or None)
        self.budget = budget

    @property
    def approximate(self):
        """True when any applied degradation changes answer values
        (widening EVERY keeps answers exact, only less frequent)."""
        return any(
            d["kind"] in ("sketch", "sample") for d in self.degradations
        )

    def as_dict(self):
        out = {
            "budget": self.budget,
            "degradations": list(self.degradations),
            "approximate": self.approximate,
        }
        if self.bound is not None:
            out["bound"] = self.bound.as_dict()
        return out


class AdmissionPolicy:
    """Budgeted admission with the sketch -> widen -> sample ladder.

    ``budget_units`` is the per-query ceiling in the cost bounder's
    scalar units/sec (None disables the policy entirely).
    """

    def __init__(self, budget_units=None):
        self.budget_units = budget_units

    def admit(self, lq, catalog, now=None):
        """Admit ``lq`` (mutating it down the ladder when over budget).

        Returns an :class:`AdmissionDecision`; raises
        :class:`AdmissionError` when the fully degraded bound still
        exceeds the budget.
        """
        budget = self.budget_units
        bound = bound_query_cost(lq, catalog, now)
        if budget is None or bound is None:
            return AdmissionDecision(True, [], bound, budget)
        degradations = []
        if bound.units_per_sec() > budget:
            if _swap_sketches(lq, degradations):
                bound = bound_query_cost(lq, catalog, now)
            if bound.units_per_sec() > budget:
                bound = _widen_every(lq, catalog, now, budget, degradations)
            if bound.units_per_sec() > budget:
                bound = _sample(lq, catalog, now, budget, degradations)
        if bound.units_per_sec() <= budget:
            return AdmissionDecision(True, degradations, bound, budget)
        raise AdmissionError(
            "query cost bound {:.1f} units/s exceeds budget {:.1f} "
            "even after degradation ({})".format(
                bound.units_per_sec(), budget,
                ", ".join(d["kind"] for d in degradations) or "none applicable",
            ),
            bound=bound, budget=budget,
        )


def _swap_sketches(lq, degradations):
    swapped = False
    for item, name in lq.select_items:
        if isinstance(item, AggCall) and item.func_name == "COUNT_DISTINCT":
            item.func_name = "APPROX_COUNT_DISTINCT"
            precision = item.params[0] if item.params else 10
            degradations.append({
                "kind": "sketch",
                "column": name,
                "aggregate": "APPROX_COUNT_DISTINCT",
                # HLL standard error; see aggregates.ApproxCountDistinct.
                "relative_error": round(1.04 / (2 ** precision) ** 0.5, 4),
            })
            swapped = True
    return swapped


def _widen_every(lq, catalog, now, budget, degradations):
    original = lq.every
    factor = 1.0
    bound = bound_query_cost(lq, catalog, now)
    while (bound.units_per_sec() > budget
           and factor * 2.0 <= MAX_EVERY_FACTOR + 1e-9):
        factor *= 2.0
        lq.every = original * factor
        widened = bound_query_cost(lq, catalog, now)
        if widened.units_per_sec() >= bound.units_per_sec() - 1e-9:
            # Scan-rate-bound query: widening buys nothing; undo.
            lq.every = original * (factor / 2.0)
            factor /= 2.0
            break
        bound = widened
    if factor > 1.0:
        degradations.append({
            "kind": "widen_every",
            "factor": factor,
            "every": lq.every,
        })
    return bound


def _sample(lq, catalog, now, budget, degradations):
    bound = bound_query_cost(lq, catalog, now)
    over = bound.units_per_sec() / budget
    rate = max(MIN_SAMPLE_RATE, min(1.0, 1.0 / over))
    # The scan-examination term is unsampled (every arriving row is
    # still hashed), so shrink the rate until the whole bound fits
    # or the floor stops us.
    while rate >= MIN_SAMPLE_RATE:
        lq.options["sample_rate"] = rate
        bound = bound_query_cost(lq, catalog, now)
        if bound.units_per_sec() <= budget or rate == MIN_SAMPLE_RATE:
            break
        rate = max(MIN_SAMPLE_RATE, rate / 2.0)
    degradations.append({
        "kind": "sample",
        "rate": lq.options["sample_rate"],
    })
    return bound
