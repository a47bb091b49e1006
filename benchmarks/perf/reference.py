"""Ground truth for the perf workloads, recomputed in plain Python.

The generators write every batch of rows they hand to the program into
a :class:`RowLog` at the moment they hand it over. After the measured
phase each workload recomputes, from that log alone, what every epoch
of every query should have answered (:class:`Expected`), and
:func:`check` compares the program's answers with it. Nothing here
imports the program under test: a wrong answer cannot agree with a
reference that shares its code.

Window convention (``repro.db.window``): epoch ``k`` closes at
``t_k = t0 + k*EVERY`` and reads rows stamped in ``(t_k - WINDOW, t_k]``.
"""

import bisect
import math


class RowLog:
    """``(sim time, node, table, rows)`` for every batch a generator made."""

    def __init__(self):
        self._times = {}  # table -> [sim time of each batch], non-decreasing
        self._batches = {}  # table -> [(node, rows)]
        self.rows = 0

    def add(self, time, node, table, rows):
        self._times.setdefault(table, []).append(time)
        self._batches.setdefault(table, []).append((node, rows))
        self.rows += len(rows)

    def window(self, table, lo, hi):
        """Rows of ``table`` stamped in ``(lo, hi]``, in generation order."""
        times = self._times.get(table, [])
        batches = self._batches.get(table, [])
        out = []
        for i in range(bisect.bisect_right(times, lo),
                       bisect.bisect_right(times, hi)):
            out.extend(batches[i][1])
        return out


class Expected:
    """One answer the program owes: a (query, epoch) or a one-shot.

    ``due`` is the simulated time result lag is measured from: the end
    of the window the answer covers, or a one-shot's submit time.
    ``exact`` answers fail on any difference; the others (epochs a
    crash can reach) fail only when they *exceed* the reference -- a
    group the reference lacks, or more input rows than it counted.
    ``count_col`` names the ``COUNT(*)`` column of an aggregate answer,
    whose sum is how many input rows the answer accounts for; without
    one, each answer row counts once, and the answer must be ``exact``.
    ``n_key`` leading columns identify a group.
    """

    __slots__ = ("key", "due", "want", "exact", "count_col", "n_key")

    def __init__(self, key, due, want, exact=True, count_col=None, n_key=0):
        self.key = key
        self.due = due
        self.want = want
        self.exact = exact
        self.count_col = count_col
        self.n_key = n_key

    def units(self, rows):
        if self.count_col is None:
            return len(rows)
        return sum(row[self.count_col] for row in rows)


def _same_value(a, b):
    if isinstance(a, float) or isinstance(b, float):
        # In-network SUMs add in tree order, the reference in log order.
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def same_rows(got, want):
    """Equal as multisets of rows, floats compared to 1e-9."""
    if len(got) != len(want):
        return False
    return all(
        len(g) == len(w) and all(map(_same_value, g, w))
        for g, w in zip(sorted(got), sorted(want))
    )


def _exceeds(expected, got):
    groups = {row[:expected.n_key]: row for row in expected.want}
    for row in got:
        want = groups.get(row[:expected.n_key])
        if want is None or row[expected.count_col] > want[expected.count_col]:
            return True
    return False


def check(expected, results):
    """Compare answers with the reference.

    ``results`` maps an :class:`Expected` key to the ``EpochResult`` the
    program delivered (missing keys never arrived). Returns attempted
    and failed operation counts, ``completeness`` (units delivered over
    units owed) and the result-lag samples in simulated seconds.
    """
    failed = 0
    delivered = owed = 0
    lags = []
    for item in expected:
        owed += item.units(item.want)
        result = results.get(item.key)
        if result is None:
            failed += 1
            continue
        got = [tuple(row) for row in result.rows]
        delivered += item.units(got)
        lags.append(result.closed_at - item.due)
        if item.exact:
            failed += not same_rows(got, item.want)
        else:
            failed += _exceeds(item, got)
    return {
        "attempted": len(expected),
        "failed": failed,
        "completeness": delivered / owed,
        "lags": lags,
    }
