"""Keyword-based file-sharing search over a DHT inverted index.

The demo cites PIER's file-sharing application (reference [3], "The
Case for a Hybrid P2P Search Infrastructure"): publish each file's
keywords as postings in a DHT relation partitioned on the term, then:

* single-keyword search = one DHT ``get`` (O(log N) hops),
* multi-keyword search = an equi-join of the inverted index with
  itself on file_id, restricted to the two terms -- which PIER executes
  with its distributed join machinery.

That paper's argument -- DHT search wins for *rare* terms, flooding is
acceptable only for popular ones -- is exactly what
``benchmarks/bench_filesharing_search.py`` measures against the
flooding baseline.
"""

from repro.dht.messages import parts_of
from repro.util.zipf import ZipfSampler

# A small vocabulary whose popularity is Zipfian, like query logs.
VOCABULARY = [
    "music", "video", "linux", "windows", "game", "movie", "album",
    "live", "remix", "dataset", "lecture", "paper", "sigmod", "pier",
    "chord", "overlay", "planetlab", "kernel", "compiler", "haskell",
    "fortran", "telescope", "genome", "seismic", "glacier",
]


def count_get_hops(net):
    """Tap ``net`` and return a list that grows by one address per
    overlay hop a DHT ``get`` arrives at -- the search-cost figure of
    the hybrid-search comparison. It looks inside hop bundles, where a
    ``get`` may share a wire message with whatever else left for the
    same next hop at that instant."""
    hops = []

    def tap(src, dst, message):
        for part in parts_of(message):
            if part.kind == "route" and part.payload.get("op") == "get":
                hops.append(dst)

    net.net.on_deliver = tap
    return hops


class FileSharingApp:
    def __init__(self, net, table="inverted", ttl=3600.0):
        self.net = net
        self.table = table
        if not net.catalog.has_table(table):
            net.create_dht_table(
                table,
                [("term", "STR"), ("file_id", "STR"), ("owner", "STR")],
                partition_key="term", ttl=ttl,
            )
        self.corpus = {}  # file_id -> (owner, [terms])

    def publish_corpus(self, files_per_node=20, terms_per_file=3,
                       zipf_exponent=1.1):
        """Give every node a library of files with Zipfian keywords."""
        rng = self.net.rng.fork("files")
        sampler = ZipfSampler(len(VOCABULARY), zipf_exponent, rng)
        for address in self.net.addresses():
            for i in range(files_per_node):
                file_id = "{}/file{}".format(address, i)
                terms = set()
                while len(terms) < terms_per_file:
                    terms.add(VOCABULARY[sampler.sample() - 1])
                self.corpus[file_id] = (address, sorted(terms))
                for term in terms:
                    self.net.publish(
                        address, self.table, (term, file_id, address)
                    )
        return self

    def search_one(self, term, node=None):
        """Single-keyword search: a direct DHT get. Returns file ids."""
        address = node if node is not None else self.net.any_address()
        out = {}
        self.net.node(address).chord.get(
            self.table, term, lambda values: out.update({"v": values})
        )
        self.net.advance(3.0)
        return sorted({row[1] for _iid, row in out.get("v", [])})

    def search_sql(self, terms, node=None):
        """Multi-keyword (AND) search via a distributed self-join."""
        if len(terms) == 1:
            sql = (
                "SELECT file_id, owner FROM {} WHERE term = '{}'".format(
                    self.table, terms[0]
                )
            )
            result = self.net.run_sql(sql, node=node)
            return sorted({row[0] for row in result.rows})
        if len(terms) != 2:
            raise ValueError("search_sql supports 1 or 2 terms")
        sql = (
            "SELECT i1.file_id AS file_id, i1.owner AS owner "
            "FROM {t} AS i1, {t} AS i2 "
            "WHERE i1.file_id = i2.file_id "
            "AND i1.term = '{a}' AND i2.term = '{b}'".format(
                t=self.table, a=terms[0], b=terms[1]
            )
        )
        result = self.net.run_sql(sql, node=node)
        return sorted({row[0] for row in result.rows})

    def ground_truth(self, terms):
        """Files whose keyword set contains all ``terms``."""
        want = set(terms)
        return sorted(
            fid for fid, (_owner, fterms) in self.corpus.items()
            if want.issubset(fterms)
        )

    def term_popularity(self):
        counts = {}
        for _fid, (_owner, terms) in self.corpus.items():
            for term in terms:
                counts[term] = counts.get(term, 0) + 1
        return counts
