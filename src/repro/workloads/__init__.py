"""Workload synthesis: the data PlanetLab would have produced.

The demo ran on ~300 live PlanetLab hosts; we cannot, so these modules
generate the equivalent inputs with matching structure: a geographically
clustered testbed, per-node traffic-rate processes for the Figure 1
monitoring query, Snort alert tables calibrated to Table 1's rule
popularity, file corpora for keyword search, and router-level graphs
for recursive topology queries.
"""

from repro.workloads.generators import RateProcess, StatsWorkload
from repro.workloads.planetlab import build_planetlab_network, planetlab_placements
from repro.workloads.snort_rules import TABLE1_RULES, SnortWorkload

__all__ = [
    "RateProcess",
    "SnortWorkload",
    "StatsWorkload",
    "TABLE1_RULES",
    "build_planetlab_network",
    "planetlab_placements",
]
