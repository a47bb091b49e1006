"""Column types.

A deliberately small type system: the four scalar types PIER's demo
queries use, plus ANY for pass-through columns (e.g. DHT payloads).
Types *coerce* on insert (so a generator can hand an int to a FLOAT
column) and *validate* in tests.
"""

from repro.util.errors import CatalogError


class ColumnType:
    """A named scalar type with coercion rules."""

    def __init__(self, name, python_types, coerce_fn=None):
        self.name = name
        self.python_types = python_types
        # ``coerce`` returns a value of exactly this type unchanged, so
        # ingest may compare types instead of calling it per value.
        self.exact_type = python_types[0]
        self._coerce_fn = coerce_fn

    def coerce(self, value):
        """Convert ``value`` into this type; raise CatalogError if impossible."""
        if value is None or isinstance(value, self.python_types):
            # bool is an int subclass; keep INT columns honest.
            if self is INT and isinstance(value, bool):
                return int(value)
            return value
        if self._coerce_fn is not None:
            try:
                return self._coerce_fn(value)
            except (TypeError, ValueError) as exc:
                raise CatalogError(
                    "cannot coerce {!r} to {}".format(value, self.name)
                ) from exc
        raise CatalogError("cannot coerce {!r} to {}".format(value, self.name))

    def __repr__(self):
        return self.name


INT = ColumnType("INT", (int,), int)
FLOAT = ColumnType("FLOAT", (float, int), float)
STR = ColumnType("STR", (str,), str)
BOOL = ColumnType("BOOL", (bool,), bool)
ANY = ColumnType("ANY", (object,))


_BY_NAME = {t.name: t for t in (INT, FLOAT, STR, BOOL, ANY)}


def type_by_name(name):
    """Resolve a type from its SQL-ish name (case-insensitive)."""
    upper = name.upper()
    aliases = {
        "INTEGER": "INT", "BIGINT": "INT",
        "DOUBLE": "FLOAT", "REAL": "FLOAT",
        "TEXT": "STR", "VARCHAR": "STR", "STRING": "STR",
        "BOOLEAN": "BOOL",
    }
    upper = aliases.get(upper, upper)
    if upper not in _BY_NAME:
        raise CatalogError("unknown column type {!r}".format(name))
    return _BY_NAME[upper]
