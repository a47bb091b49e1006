"""The four canonical perf workloads.

Each workload drives the program through the public ``PierNetwork``
facade only. Its inputs come from ``--seed``: the testbed seed, every
generated row and every generated SQL string derive from it, and the
program sees nothing else. Load is an *open loop in simulated time* --
sim timers the benchmark installs append rows on a fixed schedule that
never slows when the engine does -- and a fixed amount of work in wall
time. ``oneshot_mix`` is a closed loop with one client: the next query
is submitted only after the previous one's fixed ``advance``.

``setup`` builds the testbed, tables and generators and fills the first
window; ``measure`` is the timed phase; ``expected`` recomputes every
answer from the generators' own log (``reference.RowLog``).

Why each workload exists (the layer shares are in README.md):

* ``fig1_sum`` -- many nodes, few rows: Chord maintenance dominates, so
  it moves with ``sim.clock``/``dht``/``util.serde``/``sim.network``
  and barely with ``core.*``. Its outage drives crash/recover paths and
  gives a completeness that is not 1.
* ``skew_join`` -- the data path does the work: ingest, rehash of a
  Zipf-skewed key, symmetric hash join, group-by. Few large batches.
* ``prefix_fleet`` -- one shared scan stage fanning into 100 private
  tails: the same operators as ``skew_join`` as many small batches,
  plus planner/sharing/coordinator (100 compiles, 600 closes).
* ``oneshot_mix`` -- the same ``dht``/``sim`` layers used differently:
  DHT writes beside reads, a broadcast and a compile per query,
  ``EpochExecution`` instead of ``StandingExecution``. A
  maintenance-path win that taxes routed traffic loses here.
"""

from time import perf_counter

from reference import Expected, RowLog
from repro.apps.filesharing import VOCABULARY, FileSharingApp
from repro.apps.snort import SnortApp
from repro.core.network import PierNetwork
from repro.util.rng import SeededRng
from repro.util.zipf import ZipfSampler
from repro.workloads.generators import RateProcess
from repro.workloads.planetlab import build_planetlab_network


def _no_span(_layer, fn):
    return fn


class Workload:
    name = None
    full = {}  # the geometry later issues refer to
    tiny = {}  # same shape in about a second, for test_perf.py

    def __init__(self, seed, geometry="full", span=_no_span):
        self.seed = seed
        self.g = dict(getattr(self, geometry))
        self.rng = SeededRng(seed, "perf/" + self.name)
        self.log = RowLog()
        # trace.Tracer.wrap when tracing, so generator ticks are billed
        # to bench.loadgen and not to whichever layer fired the timer.
        self.span = span
        self.net = None
        self.results = {}  # Expected.key -> EpochResult
        self.marks = []  # wall clock after each simulated second measured

    def setup(self):
        raise NotImplementedError

    def measure(self):
        raise NotImplementedError

    def expected(self):
        raise NotImplementedError

    def advance(self, seconds):
        """``net.advance`` for the measured phase, one simulated second
        at a time, reading the wall clock after each.

        The work between two marks is the same on every repeat of a
        seed, so ``run.py`` can take each stretch's fastest repeat: on
        a shared machine a neighbour slows some stretches of every
        repeat, rarely the same stretch of all of them.
        """
        net, marks = self.net, self.marks
        end = net.now + seconds
        while net.now < end:
            net.advance(min(1.0, end - net.now))
            marks.append(perf_counter())

    def every(self, address, table, period, phase, make_rows):
        """Append ``make_rows()`` to ``table`` at ``address`` every
        ``period`` simulated seconds, first after ``phase``; the timer
        dies with the node, like the host's own sampling daemon."""
        net, log = self.net, self.log
        engine = net.node(address).engine

        def tick():
            rows = make_rows()
            log.add(net.now, address, table, rows)
            for row in rows:
                net.append_stream(address, table, row)
            engine.set_timer(period, tick)

        tick = self.span("bench.loadgen", tick)
        engine.set_timer(phase, tick)

    def submit(self, key_of, sql, node):
        """Submit a continuous query; ``key_of(epoch)`` files each result."""
        def on_epoch(result):
            self.results[key_of(result.epoch)] = result

        return self.net.submit_sql(sql, node=node, on_epoch=on_epoch)

    def epochs(self, t0):
        """(k, t_k) for every epoch of the standing query geometry."""
        g = self.g
        return [(k, t0 + k * g["every"])
                for k in range(1, int(g["lifetime"] // g["every"]) + 1)]

    def tail(self):
        return "EVERY {every} SECONDS WINDOW {window} SECONDS " \
               "LIFETIME {lifetime} SECONDS".format(**self.g)


class Fig1Sum(Workload):
    """The paper's Figure 1 with a mid-run site outage."""

    name = "fig1_sum"
    full = dict(hosts=120, period=5.0, every=30, window=30, lifetime=360,
                crash_at=150, recover_at=210, crash_frac=0.15, drain=30)
    tiny = dict(hosts=24, period=5.0, every=30, window=30, lifetime=180,
                crash_at=90, recover_at=120, crash_frac=0.15, drain=30)

    def setup(self):
        g = self.g
        self.net = net = build_planetlab_network(g["hosts"], seed=self.seed)
        net.create_stream_table(
            "node_stats", [("rate_kbps", "FLOAT")], window=2 * g["window"])
        self.site = net.any_address()
        for address in net.addresses():
            self._sample(address)
        others = [a for a in net.addresses() if a != self.site]
        self.victims = self.rng.sample(
            others, max(1, int(g["crash_frac"] * g["hosts"])))
        net.advance(g["window"])

    def _sample(self, address):
        rng = self.rng.fork("rate/" + address)
        process = RateProcess(rng)
        net = self.net
        self.every(address, "node_stats", self.g["period"],
                   rng.uniform(0, self.g["period"]),
                   lambda: [(process.sample(net.now),)])

    def measure(self):
        g, net = self.g, self.net
        self.t0 = net.now
        self.submit(
            lambda epoch: epoch,
            "SELECT SUM(rate_kbps) AS total_rate, COUNT(*) AS samples "
            "FROM node_stats " + self.tail(), self.site)
        self.advance(g["crash_at"])
        for address in self.victims:
            net.crash_node(address)
        self.advance(g["recover_at"] - g["crash_at"])
        for address in self.victims:
            net.recover_node(address)
            self._sample(address)  # a rebooted host restarts its sampler
        self.advance(g["lifetime"] - g["recover_at"] + g["drain"])

    def expected(self):
        g = self.g
        crash = self.t0 + g["crash_at"]
        out = []
        for k, t_k in self.epochs(self.t0):
            rows = self.log.window("node_stats", t_k - g["window"], t_k)
            want = [(sum(r[0] for r in rows), len(rows))]
            # An epoch still in flight at the crash can lose partials.
            out.append(Expected(k, t_k, want, exact=t_k + g["every"] <= crash,
                                count_col=1))
        return out


class SkewJoin(Workload):
    """A Zipf-skewed stream joined to a small dimension stream."""

    name = "skew_join"
    full = dict(nodes=16, keys=64, zipf=1.2, groups=8, rows_per_tick=60,
                period=0.5, every=10, window=10, lifetime=60, drain=20)
    tiny = dict(nodes=6, keys=16, zipf=1.2, groups=4, rows_per_tick=5,
                period=0.5, every=10, window=10, lifetime=30, drain=15)

    def setup(self):
        g = self.g
        self.net = net = PierNetwork(nodes=g["nodes"], seed=self.seed)
        net.create_stream_table(
            "flows", [("k", "INT"), ("v", "INT")], window=2 * g["window"])
        net.create_stream_table(
            "dims", [("k", "INT"), ("w", "INT")], window=2 * g["window"])
        for address in net.addresses():
            rng = self.rng.fork("flows/" + address)
            sampler = ZipfSampler(g["keys"], g["zipf"], rng)
            self.every(
                address, "flows", g["period"], rng.uniform(0, g["period"]),
                lambda rng=rng, sampler=sampler: [
                    (sampler.sample() - 1, rng.randrange(100))
                    for _ in range(g["rows_per_tick"])])
        rng = self.rng.fork("dims")
        dims = [(k, rng.randrange(g["groups"])) for k in range(g["keys"])]
        # Mid-window, so every epoch's window holds exactly one copy.
        self.every(net.any_address(), "dims", g["every"], g["every"] / 2,
                   lambda: dims)
        net.advance(g["window"])

    def measure(self):
        g, net = self.g, self.net
        self.t0 = net.now
        self.submit(
            lambda epoch: epoch,
            "SELECT d.w, SUM(f.v) AS total, COUNT(*) AS n "
            "FROM flows f, dims d WHERE f.k = d.k GROUP BY d.w " + self.tail(),
            net.any_address())
        self.advance(g["lifetime"] + g["drain"])

    def expected(self):
        g = self.g
        out = []
        for k, t_k in self.epochs(self.t0):
            lo = t_k - g["window"]
            groups = {}
            w_of = {}
            for key, w in self.log.window("dims", lo, t_k):
                w_of.setdefault(key, []).append(w)
            for key, v in self.log.window("flows", lo, t_k):
                for w in w_of.get(key, ()):
                    held = groups.setdefault(w, [0, 0])
                    held[0] += v
                    held[1] += 1
            want = [(w, total, n) for w, (total, n) in groups.items()]
            out.append(Expected(k, t_k, want, count_col=2, n_key=1))
        return out


class PrefixFleet(Workload):
    """100 standing queries with distinct predicates over one scan."""

    name = "prefix_fleet"
    full = dict(nodes=12, queries=100, rows_per_tick=5, period=0.5,
                every=10, window=30, lifetime=60, drain=20)
    tiny = dict(nodes=4, queries=6, rows_per_tick=2, period=0.5,
                every=10, window=30, lifetime=40, drain=20)

    def setup(self):
        g = self.g
        self.net = net = PierNetwork(nodes=g["nodes"], seed=self.seed)
        net.create_stream_table(
            "node_stats", [("rate_kbps", "FLOAT")], window=2 * g["window"])
        for address in net.addresses():
            rng = self.rng.fork("rates/" + address)
            self.every(
                address, "node_stats", g["period"], rng.uniform(0, g["period"]),
                lambda rng=rng: [(round(rng.uniform(10.0, 110.0), 3),)
                                 for _ in range(g["rows_per_tick"])])
        rng = self.rng.fork("thresholds")
        # One threshold per query, spread over the lower 90% of the value
        # range, so every predicate is distinct and none filters out all.
        step = 90.0 / g["queries"]
        self.thresholds = [round(10.0 + (i + rng.random()) * step, 3)
                           for i in range(g["queries"])]
        net.advance(g["window"])

    def measure(self):
        g, net = self.g, self.net
        self.t0 = net.now
        site = net.any_address()
        for q, theta in enumerate(self.thresholds):
            self.submit(
                lambda epoch, q=q: (q, epoch),
                "SELECT SUM(rate_kbps) AS total_rate, COUNT(*) AS samples "
                "FROM node_stats WHERE rate_kbps > {} ".format(theta)
                + self.tail(), site)
        self.advance(g["lifetime"] + g["drain"])

    def expected(self):
        g = self.g
        out = []
        for k, t_k in self.epochs(self.t0):
            values = [r[0] for r in
                      self.log.window("node_stats", t_k - g["window"], t_k)]
            for q, theta in enumerate(self.thresholds):
                kept = [v for v in values if v > theta]
                out.append(Expected((q, k), t_k, [(sum(kept), len(kept))],
                                    count_col=1))
        return out


class OneshotMix(Workload):
    """DHT publishes, then one-shot queries of three kinds from one client."""

    name = "oneshot_mix"
    full = dict(nodes=48, files_per_node=12, queries=18, settle=3, think=15)
    tiny = dict(nodes=8, files_per_node=3, queries=6, settle=3, think=15)

    def setup(self):
        self.net = net = PierNetwork(nodes=self.g["nodes"], seed=self.seed)
        self.snort = SnortApp(net).install()
        for address in net.addresses():
            rows = list(net.node(address).engine.fragment("snort_alerts").scan())
            self.log.add(net.now, address, "snort_alerts", rows)
        self.files = FileSharingApp(net)

    def measure(self):
        g, net = self.g, self.net
        self.files.publish_corpus(files_per_node=g["files_per_node"])
        for file_id, (owner, terms) in self.files.corpus.items():
            self.log.add(net.now, owner, "inverted",
                         [(term, file_id, owner) for term in terms])
        self.advance(g["settle"])
        self.queries = []  # (submit time, kind, terms)
        # Stratified, not sampled: every seed asks about the same
        # popularity ranks (VOCABULARY is in rank order) in the same
        # pairs, so answer sizes -- and wall time -- differ between
        # seeds by the corpus alone; the seed shuffles the order.
        ranks = list(range(min(g["queries"] // 3, len(VOCABULARY))))
        self.rng.fork("queries").shuffle(ranks)
        sites = net.addresses()
        for i in range(g["queries"]):
            kind = ("top_rules", "two_terms", "one_term")[i % 3]
            rank = ranks[i // 3 % len(ranks)]
            terms = (VOCABULARY[rank],
                     VOCABULARY[(rank + len(ranks) // 2) % len(ranks)])
            if kind == "top_rules":
                sql = self.snort.workload.top_k_sql(10)
            elif kind == "two_terms":
                sql = ("SELECT i1.file_id AS file_id, i1.owner AS owner "
                       "FROM inverted AS i1, inverted AS i2 "
                       "WHERE i1.file_id = i2.file_id "
                       "AND i1.term = '{}' AND i2.term = '{}'".format(*terms))
            else:
                sql = ("SELECT file_id, owner FROM inverted "
                       "WHERE term = '{}'".format(terms[0]))
            self.queries.append((net.now, kind, terms))
            handle = net.submit_sql(sql, node=sites[i % len(sites)])
            self.advance(g["think"])
            if handle.result(0) is not None:
                self.results[i] = handle.result(0)

    def expected(self):
        hits = {}
        for rule_id, descr, n in self.log.window(
                "snort_alerts", -1.0, float("inf")):
            hits[rule_id, descr] = hits.get((rule_id, descr), 0) + n
        top = sorted(((r, d, n) for (r, d), n in hits.items()),
                     key=lambda row: row[2], reverse=True)[:10]
        terms_of = {}
        for term, file_id, owner in self.log.window(
                "inverted", -1.0, float("inf")):
            terms_of.setdefault((file_id, owner), set()).add(term)
        out = []
        for i, (submitted, kind, terms) in enumerate(self.queries):
            if kind == "top_rules":
                want = top
            else:
                need = set(terms if kind == "two_terms" else terms[:1])
                want = [f for f, have in terms_of.items() if need <= have]
            out.append(Expected(i, submitted, want))
        return out


WORKLOADS = {w.name: w for w in (Fig1Sum, SkewJoin, PrefixFleet, OneshotMix)}
