"""Per-node metric generators.

:class:`RateProcess` models one host's outbound data rate: a lognormal
base level (hosts differ by orders of magnitude), a diurnal swing, AR(1)
noise, and occasional multi-sample bursts -- enough texture that the
Figure 1 time series wiggles like the paper's, without pretending to be
a packet trace.

:class:`StatsWorkload` wires one process per node to a stream table and
survives churn: its ``on_join`` hook re-installs the generator when a
host recovers, the way a rebooted PlanetLab node restarts its
monitoring daemons.
"""

import math


class RateProcess:
    """One host's outbound-rate time series (kbps)."""

    def __init__(self, rng, base_mu=5.0, base_sigma=1.0, diurnal_amplitude=0.3,
                 diurnal_period=86400.0, noise=0.15, burst_rate=0.01,
                 burst_multiplier=8.0, burst_length=4):
        self._rng = rng
        self.base = rng.lognormvariate(base_mu, base_sigma) / 10.0
        self.diurnal_amplitude = diurnal_amplitude
        self.diurnal_period = diurnal_period
        self.noise = noise
        self.burst_rate = burst_rate
        self.burst_multiplier = burst_multiplier
        self.burst_length = burst_length
        self.phase = rng.uniform(0, diurnal_period)
        self._ar = 0.0
        self._burst_left = 0

    def sample(self, t):
        """Rate at simulated time ``t`` (successive calls evolve noise)."""
        diurnal = 1.0 + self.diurnal_amplitude * math.sin(
            2 * math.pi * (t + self.phase) / self.diurnal_period
        )
        self._ar = 0.8 * self._ar + self._rng.gauss(0, self.noise)
        level = self.base * diurnal * math.exp(self._ar)
        if self._burst_left > 0:
            self._burst_left -= 1
            level *= self.burst_multiplier
        elif self._rng.random() < self.burst_rate:
            self._burst_left = self.burst_length
        return max(0.0, level)


class StatsWorkload:
    """Attach per-node rate generators feeding a stream table."""

    def __init__(self, net, table="node_stats", period=5.0, window=None,
                 process_factory=None):
        self.net = net
        self.table = table
        self.period = period
        self._factory = process_factory or (lambda rng: RateProcess(rng))
        self._processes = {}
        if not net.catalog.has_table(table):
            net.create_stream_table(
                table, [("rate_kbps", "FLOAT")],
                window=window if window is not None else 4 * period,
            )

    def install_all(self):
        for address in self.net.addresses():
            self.install(address)
        return self

    def install(self, address):
        """(Re)start the generator loop on one node."""
        rng = self.net.rng.fork("rate/{}".format(address))
        process = self._factory(rng)
        self._processes[address] = process
        node = self.net.node(address)
        jitter = rng.uniform(0, self.period)

        def tick():
            engine = self.net.node(address).engine
            engine.stream_append(
                self.table, (process.sample(self.net.now),)
            )
            engine.set_timer(self.period, tick)

        node.engine.set_timer(jitter, tick)

    def on_join(self, address):
        """Churn hook: a recovered host restarts its generator."""
        self.install(address)
