"""PlanetLab system monitoring -- the paper's headline demo.

"Continuous sum of outbound data rates over responding nodes running
PIER on PlanetLab" (Figure 1): every host samples its outbound rate
into a local stream table; one continuous query aggregates the
network-wide SUM and the count of responding nodes, epoch by epoch,
over the in-network aggregation tree. Under churn the responding-node
count dips and recovers -- the behaviour the figure exists to show.
"""

from repro.workloads.generators import StatsWorkload


class MonitoringApp:
    """Wires the rate workload and the Figure 1 query onto a testbed."""

    def __init__(self, net, table="node_stats", sample_period=5.0,
                 window=30.0):
        self.net = net
        self.table = table
        self.sample_period = sample_period
        self.window = window
        self.workload = StatsWorkload(
            net, table=table, period=sample_period, window=2 * window,
        )
        self.series = []  # (epoch_t0, total_rate, responding_count)
        self._handle = None

    def install(self):
        self.workload.install_all()
        return self

    def on_join(self, address):
        """Churn hook: restart the recovered host's sampler."""
        self.workload.on_join(address)

    def figure1_sql(self, every=30.0, lifetime=1800.0):
        return (
            "SELECT SUM(rate_kbps) AS total_rate, COUNT(*) AS samples "
            "FROM {} EVERY {} SECONDS WINDOW {} SECONDS "
            "LIFETIME {} SECONDS".format(
                self.table, every, self.window, lifetime
            )
        )

    def start_query(self, node=None, every=30.0, lifetime=1800.0):
        """Submit the continuous query; results accumulate in .series."""

        def on_epoch(result):
            if result.rows:
                total, samples = result.rows[0]
                # samples counts rows in the window; rows-per-node is
                # window/sample_period, so responding nodes is the ratio.
                per_node = max(1, round(self.window / self.sample_period))
                responding = round(samples / per_node)
            else:
                total, responding = 0.0, 0
            self.series.append((result.t0, total, responding))

        self._handle = self.net.submit_sql(
            self.figure1_sql(every, lifetime), node=node, on_epoch=on_epoch,
        )
        return self._handle

    def run(self, duration, every=30.0, node=None):
        """Convenience: install, query, advance; returns the series."""
        if not self.workload._processes:
            self.install()
        self.net.advance(self.window)  # fill the first window
        self.start_query(node=node, every=every, lifetime=duration)
        self.net.advance(duration + 15.0)
        return self.series
