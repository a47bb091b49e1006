"""Stream tables as a bounded, time-indexed log, and the pane math.

Continuous queries in PIER's SQL dialect read a window of recent rows
each epoch (``... WINDOW 60 SECONDS EVERY 30 SECONDS``). A
:class:`TimeWindow` is the node-local log behind that: stamps only
grow, so it is one sorted ``array('d')`` beside one list of row tuples,
a time range is two bisects, and what the table's horizon no longer
covers is cut from the front as rows arrive -- memory is rate x
horizon, whatever the uptime. A row's *sequence number* (rows evicted
so far + its index) never changes: a standing scan keeps a cursor into
the log instead of a copy of it.

When ``WINDOW > EVERY`` adjacent windows overlap, and re-aggregating
the overlap every epoch is the dominant per-epoch cost. The classic
fix is *panes*: slice time into buckets of width ``gcd(WINDOW,
EVERY)`` so every window is an exact union of panes and each epoch
only introduces ``EVERY / pane`` new ones. The module-level helpers
here define that arithmetic once, shared by the standing scan (which
buckets its per-epoch delta) and the pane-aware stateful operators
(which decide which panes a given epoch's window covers):

* :func:`pane_width` -- the pane size for a (window, every) pair, or
  ``None`` when the two are not commensurable;
* :func:`pane_index` -- which pane a timestamp falls into, with panes
  aligned to the query's submission time so window edges land exactly
  on pane edges;
* :func:`window_pane_range` -- the half-open pane-index range
  ``[lo, hi)`` that epoch ``k``'s window covers.
"""

import math
from array import array
from bisect import bisect_left, bisect_right

# The front is cut once more than this many rows lie past the horizon.
# Readers never see a dead row, so nothing depends on the number.
_EVICT_CHUNK = 256

_PANE_RESOLUTION = 1000  # pane math at millisecond resolution


def pane_width(window, every):
    """Pane size (seconds) for a window/period pair, or ``None``.

    The pane is ``gcd(window, every)`` computed at millisecond
    resolution, so both the window and the period are exact pane
    multiples and every epoch's window edge coincides with a pane
    edge. Returns ``None`` when either duration is missing,
    non-positive, or not representable on the millisecond grid (then
    paned aggregation is not applicable and callers fall back to
    from-scratch window evaluation).
    """
    if not window or not every:
        return None
    w = round(window * _PANE_RESOLUTION)
    e = round(every * _PANE_RESOLUTION)
    if w <= 0 or e <= 0:
        return None
    if (abs(w - window * _PANE_RESOLUTION) > 1e-6
            or abs(e - every * _PANE_RESOLUTION) > 1e-6):
        return None
    return math.gcd(w, e) / _PANE_RESOLUTION


def pane_index(timestamp, origin, width):
    """Index of the pane containing ``timestamp``.

    Panes tile time relative to ``origin`` (the query's t0): pane ``p``
    covers the half-open interval ``(origin + p*width, origin +
    (p+1)*width]`` -- right-closed to match the window convention
    ``(t_k - WINDOW, t_k]``, so a row stamped exactly on an epoch
    boundary belongs to the epoch that ends there. Indices may be
    negative for history older than the query.
    """
    return math.ceil(round((timestamp - origin) / width, 9)) - 1


def window_pane_range(epoch, panes_per_every, panes_per_window):
    """Half-open pane range ``[lo, hi)`` covered by epoch ``k``'s window.

    Epoch ``k`` closes at ``t0 + k*EVERY`` and reads ``(t_k - WINDOW,
    t_k]``; in pane units that is the ``panes_per_window`` panes ending
    just before index ``k * panes_per_every``.
    """
    hi = epoch * panes_per_every
    return hi - panes_per_window, hi


class TimeWindow:
    """One node's rows of a stream table. What is older than the newest
    stamp minus the horizon is gone for every reader, cut from the front
    or not: a query window wider than the horizon reads what it retains.
    """

    def __init__(self, table_def):
        self.table_def = table_def
        self.schema = table_def.schema
        self.horizon = table_def.window
        self._stamps = array("d")  # non-decreasing
        self._rows = []  # row tuples, index-aligned with _stamps
        self.base = 0  # rows evicted: row i has sequence number base + i

    def append(self, timestamp, row):
        """Log ``row`` (a late stamp is clamped to the newest); returns
        the stored tuple, ``row`` itself when it needed no coercion."""
        row = self.schema.row(row)
        stamps = self._stamps
        if stamps and timestamp < stamps[-1]:
            timestamp = stamps[-1]
        stamps.append(timestamp)
        self._rows.append(row)
        cutoff = timestamp - self.horizon
        if len(stamps) > _EVICT_CHUNK and stamps[_EVICT_CHUNK] < cutoff:
            self.evict_older_than(cutoff)
        return row

    def evict_older_than(self, cutoff):
        """Drop rows with timestamp < cutoff; returns how many."""
        dropped = bisect_left(self._stamps, cutoff)
        del self._stamps[:dropped]
        del self._rows[:dropped]
        self.base += dropped
        return dropped

    # -- reads by sequence number (the standing scan's cursor) ---------
    @property
    def end(self):
        """Sequence number the next appended row will get."""
        return self.base + len(self._rows)

    def first_live(self):
        """Sequence number of the oldest row the horizon retains."""
        stamps = self._stamps
        if not stamps:
            return self.base
        return self.base + bisect_left(stamps, stamps[-1] - self.horizon)

    def seq_after(self, timestamp):
        """Sequence number of the first row stamped after ``timestamp``."""
        return self.base + bisect_right(self._stamps, timestamp)

    def rows_in(self, lo, hi):
        """Rows numbered ``[lo, hi)``, a new list (``lo`` at or past
        :meth:`first_live`: evicted numbers are not addressable)."""
        return self._rows[lo - self.base:hi - self.base]

    def stamps_in(self, lo, hi):
        """Their timestamps."""
        return self._stamps[lo - self.base:hi - self.base]

    # -- reads by time --------------------------------------------------
    def scan_window(self, lo, hi):
        """Rows with timestamp in (lo, hi] -- one epoch's input."""
        return self.rows_in(max(self.seq_after(lo), self.first_live()),
                            self.seq_after(hi))

    def scan(self):
        """All retained rows (the full current window)."""
        return self.rows_in(self.first_live(), self.end)

    def latest(self):
        return (self._stamps[-1], self._rows[-1]) if self._rows else None

    def __len__(self):
        return self.end - self.first_live()

    def __repr__(self):
        return "TimeWindow({!r}, {} rows, horizon={})".format(
            self.table_def.name, len(self), self.horizon
        )
