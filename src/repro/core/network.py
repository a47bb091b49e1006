"""PierNetwork: the public facade.

One object stands up the whole reproduction: simulation clock, wide-
area latency model, Chord overlay, and a PIER engine per node. Queries
go in as SQL (or pre-built plans); results come back as
:class:`~repro.core.coordinator.EpochResult` objects.

Typical use::

    net = PierNetwork(nodes=64, seed=7)
    net.create_local_table("snort", [("rule_id", "INT"), ("hits", "INT")])
    net.insert("node3", "snort", [(1322, 17), (1444, 2)])
    result = net.run_sql(
        "SELECT rule_id, SUM(hits) AS hits FROM snort "
        "GROUP BY rule_id ORDER BY hits DESC LIMIT 10"
    )
    for row in result.rows:
        print(row)

The clock only advances inside :meth:`advance` / :meth:`run_sql`, so
callers interleave data changes, churn and queries deterministically.
"""

from repro.core.catalog import StatsCatalog
from repro.core.coordinator import Coordinator
from repro.core.engine import EngineConfig, PierEngine
from repro.core.planner import plan_query
from repro.core.sql import parse_query
from repro.db.catalog import Catalog, TableDef
from repro.db.schema import Column, Schema
from repro.db.types import type_by_name
from repro.dht.bootstrap import build_chord_ring
from repro.dht.chord import ChordNode
from repro.dht.config import DhtConfig
from repro.sim.churn import ChurnConfig, ChurnProcess
from repro.sim.clock import SimClock
from repro.sim.latency import GeoLatency, RegionalLatency
from repro.sim.network import Network, NetworkConfig
from repro.util.errors import PierError
from repro.util.rng import SeededRng


# One-way delay per unit of distance on an unlabelled (GeoLatency)
# topology: ~110 ms across the unit square before jitter, the
# intercontinental paths the DHT's timeouts are scaled to.
LATENCY_SCALE = 0.15


class PierConfig:
    """Knobs for a PierNetwork testbed."""

    def __init__(self, dht=None, engine=None, network=None, admission=None):
        self.dht = dht if dht is not None else DhtConfig()
        self.engine = engine if engine is not None else EngineConfig()
        self.network = network if network is not None else NetworkConfig()
        # An AdmissionPolicy (core.admission), or None to admit all.
        self.admission = admission


class PierNode:
    """One simulated host: its overlay node and its query engine."""

    def __init__(self, chord, engine, coordinator):
        self.chord = chord
        self.engine = engine
        self.coordinator = coordinator
        self.address = chord.address

    @property
    def alive(self):
        return self.chord.alive


class PierNetwork:
    def __init__(self, nodes=64, seed=0, config=None, addresses=None,
                 placements=None, regions=None):
        """Build a testbed of ``nodes`` hosts (or explicit ``addresses``).

        ``placements`` optionally maps address -> (x, y) site coordinates
        in the unit square (the PlanetLab workload uses this to cluster
        hosts into continental sites); unlisted hosts are placed randomly.

        ``regions`` maps address -> region label and switches the
        testbed to :class:`RegionalLatency` (rack-scale paths inside a
        region, backbone paths between regions); it supplies the node
        set, so ``addresses``/``placements`` are ignored when given.
        """
        self.config = config if config is not None else PierConfig()
        self.rng = SeededRng(seed)
        self.clock = SimClock()
        if regions:
            self.latency = RegionalLatency(
                self.rng.fork("latency"), regions=regions
            )
            addresses = list(regions)
        else:
            self.latency = GeoLatency(
                self.rng.fork("latency"), scale=LATENCY_SCALE
            )
        self.net = Network(
            self.clock, self.latency, self.rng.fork("net"), self.config.network
        )
        self.catalog = Catalog()
        # Runtime stats ride on the shared schema catalog: every
        # engine's stream_append and the coordinators' epoch-close
        # feedback update the same view the cost bounder reads.
        self.catalog.stats = StatsCatalog()
        self.nodes = {}

        if addresses is None:
            addresses = ["node{}".format(i) for i in range(nodes)]
        for address in addresses:
            if regions:
                pass  # region labels were assigned to the latency model
            elif placements and address in placements:
                x, y = placements[address]
                self.latency.place(address, x, y)
            else:
                self.latency.place_random(address)
            self._make_node(address)

        build_chord_ring([n.chord for n in self.nodes.values()])
        self.clock.run_for(1.0)  # let first maintenance jitter settle

    def _make_node(self, address):
        chord = ChordNode(
            self.net, address, self.config.dht,
            self.rng.fork("chord/{}".format(address)),
        )
        engine = PierEngine(
            chord, self.catalog, self.config.engine,
            self.rng.fork("engine/{}".format(address)),
        )
        coordinator = Coordinator(engine)
        node = PierNode(chord, engine, coordinator)
        self.nodes[address] = node
        return node

    # ------------------------------------------------------------------
    # Topology access
    # ------------------------------------------------------------------
    def node(self, address):
        node = self.nodes.get(address)
        if node is None:
            raise PierError("unknown node {!r}".format(address))
        return node

    def addresses(self):
        return list(self.nodes)

    def live_addresses(self):
        return [a for a, n in self.nodes.items() if n.alive]

    def any_address(self):
        return next(iter(self.nodes))

    def __len__(self):
        return len(self.nodes)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self):
        return self.clock.now

    def advance(self, seconds):
        """Run the simulation forward by ``seconds``."""
        self.clock.run_for(seconds)

    # ------------------------------------------------------------------
    # Schema + data
    # ------------------------------------------------------------------
    def _build_schema(self, columns):
        return Schema(
            Column(name, type_by_name(t) if isinstance(t, str) else t)
            for name, t in columns
        )

    def create_local_table(self, name, columns):
        """A relation whose rows live where they are produced."""
        return self.catalog.define(
            TableDef(name, self._build_schema(columns), source="local")
        )

    def create_stream_table(self, name, columns, window):
        """A timestamped relation read through per-epoch windows."""
        return self.catalog.define(TableDef(
            name, self._build_schema(columns), source="stream", window=window,
        ))

    def create_dht_table(self, name, columns, partition_key, ttl=None):
        """A relation published into the DHT, hashed on ``partition_key``."""
        return self.catalog.define(TableDef(
            name, self._build_schema(columns), source="dht",
            partition_key=partition_key, ttl=ttl,
        ))

    def insert(self, address, table, rows):
        """Add rows to ``address``'s local fragment of a local table."""
        self.node(address).engine.local_insert(table, rows)

    def append_stream(self, address, table, row, timestamp=None):
        self.node(address).engine.stream_append(table, row, timestamp)

    def publish(self, address, table, row, ttl=None, keep_alive=False):
        """Publish a row into a DHT table from ``address``.

        ``keep_alive`` makes it maintained soft state: the publisher
        re-puts it every ttl/3, so it outlives crashes of the *storing*
        node (but not of the publisher -- there is no other copy).
        """
        return self.node(address).engine.publish(table, row, ttl, keep_alive)

    def stop_publishing(self, address, table, instance_id):
        self.node(address).engine.stop_publishing(table, instance_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def compile_sql(self, sql, options=None):
        """Parse, admit, and plan without running.

        When the config carries an admission policy, the logical query
        walks the degradation ladder *before* planning (so signatures
        reflect what runs) and the decision is stamped into
        ``plan.metadata["admission"]`` -- degraded answers surface as
        labeled-approximate results, and over-budget queries raise
        :class:`~repro.core.admission.AdmissionError` here, before any
        dissemination.
        """
        logical = parse_query(sql, options)
        decision = None
        policy = self.config.admission
        if policy is not None:
            decision = policy.admit(logical, self.catalog, now=self.now)
        plan = plan_query(logical, self.catalog)
        if decision is not None:
            plan.metadata["admission"] = decision.as_dict()
        return plan

    def explain_sql(self, sql, options=None):  # noqa: DEF001 -- public facade, README documents it
        """Human-readable physical plan (ops, edges, flush deadlines)."""
        return self.compile_sql(sql, options).describe()

    def submit_sql(self, sql, node=None, on_epoch=None, options=None):
        """Disseminate a query; returns its QueryHandle immediately.

        The caller drives the clock (``advance``) and reads
        ``handle.results`` -- the pattern for continuous queries.
        """
        plan = self.compile_sql(sql, options)
        return self.submit_plan(plan, node=node, on_epoch=on_epoch)

    def submit_plan(self, plan, node=None, on_epoch=None):
        address = node if node is not None else self.any_address()
        return self.node(address).coordinator.submit(plan, on_epoch)

    def run_sql(self, sql, node=None, options=None, extra_time=2.0):
        """Submit a one-shot query and advance time until it completes."""
        handle = self.submit_sql(sql, node=node, options=options)
        if handle.plan.mode == "continuous":
            raise PierError("use submit_sql + advance for continuous queries")
        self.advance(handle.plan.deadline + extra_time)
        result = handle.result(0)
        if result is None:
            raise PierError("query {!r} produced no result".format(handle.qid))
        return result

    def run_plan(self, plan, node=None, extra_time=2.0):
        handle = self.submit_plan(plan, node=node)
        self.advance(plan.deadline + extra_time)
        result = handle.result(0)
        if result is None:
            raise PierError("query {!r} produced no result".format(handle.qid))
        return result

    # ------------------------------------------------------------------
    # Failures and churn
    # ------------------------------------------------------------------
    def crash_node(self, address):
        node = self.node(address)
        node.engine.on_crash()
        node.chord.crash()

    def recover_node(self, address, bootstrap=None):
        node = self.node(address)
        if bootstrap is None:
            live = [a for a in self.live_addresses() if a != address]
            bootstrap = live[0] if live else None
        node.chord.recover(bootstrap)

    def partition_region(self, region):
        """Cut a region's backbone links (nodes stay alive with state)."""
        self.net.partition_region(region)

    def heal_region(self, region):
        """Reconnect a partitioned region."""
        self.net.heal_region(region)

    def region_of(self, address):
        return self.latency.region_of(address)

    def start_churn(self, mean_session, mean_downtime, on_leave=None,
                    on_join=None, exclude=()):
        """Begin alternating up/down sessions on every node.

        ``on_join`` hooks let applications re-install per-node state
        (workload generators) after a recovery, the way a rebooted
        PlanetLab host restarts its monitoring daemons. ``exclude``
        lists addresses kept stable -- typically the query site, which
        in the live demo was the researcher's own machine.
        """

        def leave(address):
            self.crash_node(address)
            if on_leave is not None:
                on_leave(address)

        def join(address):
            self.recover_node(address)
            if on_join is not None:
                on_join(address)

        churn = ChurnProcess(
            self.clock, ChurnConfig(mean_session, mean_downtime),
            self.rng.fork("churn"), leave, join,
        )
        excluded = set(exclude)
        for address in self.nodes:
            if address not in excluded:
                churn.manage(address)
        churn.start()
        return churn

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def message_counters(self):
        return self.net.counters.as_dict()

    def inbound_bytes(self, address):
        """Bytes delivered to one node so far (fan-in accounting)."""
        return self.net.inbound_bytes.get(address, 0)

    def reset_counters(self):
        from repro.util.stats import Counter

        self.net.counters = Counter()
