"""The (globally replicated) catalog.

PIER assumes every node knows every relation's schema -- there is no
distributed catalog protocol; schemas travel out-of-band. We model
that by giving every engine a reference to one shared Catalog object,
which is exactly the information a real deployment would bake into its
application release.

A table is one of three source kinds:

* ``local``  -- each node owns private rows (e.g. its own Snort alerts);
  a query scans every node's fragment via dissemination.
* ``dht``    -- rows are published into the DHT, partitioned by
  hash(table, partition_key); a query scans each node's *stored*
  fragment via lscan, and point lookups on the partition key become
  cheap ``get`` calls (the Fetch-Matches join relies on this).
* ``stream`` -- like local, but rows carry timestamps and age out of a
  window; continuous queries read only the current window.
"""

from repro.util.errors import CatalogError

SOURCE_KINDS = ("local", "dht", "stream")


class TableDef:
    """Metadata for one relation."""

    def __init__(self, name, schema, source="local", partition_key=None,
                 ttl=None, window=None):
        if source not in SOURCE_KINDS:
            raise CatalogError("unknown source kind {!r}".format(source))
        if source == "dht" and partition_key is None:
            raise CatalogError("dht table {!r} needs a partition_key".format(name))
        if partition_key is not None and not schema.has_column(partition_key):
            raise CatalogError(
                "partition key {!r} not in schema of {!r}".format(partition_key, name)
            )
        self.name = name
        self.schema = schema
        self.source = source
        self.partition_key = partition_key
        self.ttl = ttl  # soft-state TTL for dht tables
        self.window = window  # seconds of history kept for stream tables

    def __repr__(self):
        return "TableDef({!r}, {}, source={})".format(
            self.name, self.schema.names, self.source
        )


class Catalog:
    """Name -> TableDef registry shared by all engines."""

    #: Runtime stats (``core.catalog.StatsCatalog``) ride along when the
    #: testbed enabled them; engines and coordinators feed it.
    stats = None

    def __init__(self):
        self._tables = {}

    def define(self, table_def):
        if table_def.name in self._tables:
            raise CatalogError("table {!r} already defined".format(table_def.name))
        self._tables[table_def.name] = table_def
        return table_def

    def lookup(self, name):
        table = self._tables.get(name)
        if table is None:
            raise CatalogError("unknown table {!r}".format(name))
        return table

    def has_table(self, name):
        return name in self._tables

    def drop(self, name):
        if name not in self._tables:
            raise CatalogError("unknown table {!r}".format(name))
        del self._tables[name]

    def table_names(self):
        return sorted(self._tables)

    def __len__(self):
        return len(self._tables)
