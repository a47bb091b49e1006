"""Schemas: ordered, named, typed column lists.

Column names may be qualified (``"stats.rate"``); resolution accepts an
unqualified name whenever it is unambiguous, which is what lets the
same expression tree run before and after a join concatenates schemas.
"""

from repro.db.types import ANY
from repro.util.errors import CatalogError
from repro.util.serde import uniform_row_size


class Column:
    __slots__ = ("name", "type")

    def __init__(self, name, column_type=ANY):
        self.name = name
        self.type = column_type

    def __repr__(self):
        return "{} {}".format(self.name, self.type.name)


class Schema:
    """An immutable ordered list of columns with name lookup."""

    def __init__(self, columns):
        self.columns = list(columns)
        self._index = {}
        for i, column in enumerate(self.columns):
            if column.name in self._index:
                raise CatalogError("duplicate column {!r}".format(column.name))
            self._index[column.name] = i
        # The ingest fast path (:meth:`row`): a tuple whose values have
        # exactly these types is what ``coerce_row`` would return, and
        # its ``wire_size`` is this number (None: not all fixed-width).
        self.exact_types = tuple(c.type.exact_type for c in self.columns)
        self.fixed_row_bytes = uniform_row_size(
            [tuple(t() for t in self.exact_types)])

    @classmethod
    def of(cls, *name_type_pairs):
        """Shorthand: ``Schema.of(("a", INT), ("b", STR))``."""
        return cls(Column(name, t) for name, t in name_type_pairs)

    def __len__(self):
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    @property
    def names(self):
        return [c.name for c in self.columns]

    def index_of(self, name):
        """Resolve a (possibly unqualified) column name to its position."""
        if name in self._index:
            return self._index[name]
        # Unqualified reference to a qualified column: match by suffix.
        matches = [
            i for n, i in self._index.items()
            if "." in n and n.rsplit(".", 1)[1] == name
        ]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise CatalogError("ambiguous column {!r}".format(name))
        raise CatalogError("unknown column {!r}".format(name))

    def has_column(self, name):
        try:
            self.index_of(name)
            return True
        except CatalogError:
            return False

    def qualify(self, qualifier):
        """A copy with every column renamed to ``qualifier.column``."""
        return Schema(
            Column("{}.{}".format(qualifier, c.name.rsplit(".", 1)[-1]), c.type)
            for c in self.columns
        )

    def concat(self, other):
        """Schema of a join output: this schema's columns then ``other``'s."""
        return Schema(list(self.columns) + list(other.columns))

    def project(self, names):
        return Schema(self.columns[self.index_of(n)] for n in names)

    def coerce_row(self, values):
        """Coerce an iterable of values into a row tuple for this schema."""
        values = tuple(values)
        if len(values) != len(self.columns):
            raise CatalogError(
                "row has {} values, schema {!r} needs {}".format(
                    len(values), self.names, len(self.columns)
                )
            )
        return tuple(c.type.coerce(v) for c, v in zip(self.columns, values))

    def row_from_dict(self, mapping):
        """Build a row tuple from a {column: value} mapping."""
        missing = [c.name for c in self.columns if c.name not in mapping]
        if missing:
            raise CatalogError("row missing columns {}".format(missing))
        return self.coerce_row(mapping[c.name] for c in self.columns)

    def row(self, values):
        """The row tuple for a mapping or a sequence (itself if it is one)."""
        if type(values) is tuple and (
                tuple(map(type, values)) == self.exact_types):
            return values
        if isinstance(values, dict):
            return self.row_from_dict(values)
        return self.coerce_row(values)

    def row_to_dict(self, row):
        return {c.name: v for c, v in zip(self.columns, row)}

    def __eq__(self, other):
        return isinstance(other, Schema) and [
            (c.name, c.type.name) for c in self.columns
        ] == [(c.name, c.type.name) for c in other.columns]

    def __repr__(self):
        return "Schema({})".format(", ".join(map(repr, self.columns)))
