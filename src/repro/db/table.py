"""Node-local table fragments.

A ``local`` table's fragment is a plain row list that every epoch
re-reads whole (:class:`LocalTable`); a ``stream`` table's is the
bounded, time-indexed log of :class:`~repro.db.window.TimeWindow`,
which one-shot scans read by time range and standing scans follow with
a cursor.
"""

from repro.db.window import TimeWindow
from repro.util.errors import CatalogError


class LocalTable:
    """The rows one node contributes to a ``local`` relation.

    Inserts accept dicts or positional sequences and coerce through the
    schema. Scans return the row list (callers must not mutate it).
    """

    def __init__(self, table_def):
        self.table_def = table_def
        self.schema = table_def.schema
        self._rows = []

    def insert(self, row):
        coerced = self.schema.row(row)
        self._rows.append(coerced)
        return coerced

    def insert_many(self, rows):
        for row in rows:
            self.insert(row)

    def scan(self):
        return self._rows

    def clear(self):
        self._rows = []

    def __len__(self):
        return len(self._rows)

    def __repr__(self):
        return "LocalTable({!r}, {} rows)".format(self.table_def.name, len(self._rows))


def make_fragment(table_def):
    """Build the right fragment container for a table's source kind."""
    if table_def.source == "stream":
        if table_def.window is None:
            raise CatalogError(
                "stream table {!r} needs a window".format(table_def.name)
            )
        return TimeWindow(table_def)
    return LocalTable(table_def)
