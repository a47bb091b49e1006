"""PIER's query processor: dataflow engine + relational operators.

The public entry point is :class:`repro.core.network.PierNetwork`, which
stands up a simulated testbed (clock, latency model, Chord ring, one
PIER engine per node) and exposes SQL and algebraic query interfaces.

Layering (bottom-up):

* :mod:`opgraph` -- "boxes and arrows": serializable operator graphs.
* :mod:`dataflow` -- per-node, per-epoch push-based execution of a graph.
* :mod:`operators` -- scan, select, project, joins (symmetric-hash,
  fetch-matches, Bloom), group-by, top-k, distinct, result return.
* :mod:`exchange` -- the only operator that touches the network: rehash
  via DHT routing, direct result return, or aggregation-tree routing.
* :mod:`aggregation_tree` -- per-hop combining of partial aggregates.
* :mod:`planner` / :mod:`sql` -- SQL and algebra frontends.
* :mod:`engine` / :mod:`coordinator` -- per-node runtime and query-site
  result collection.
"""

from repro.core.network import PierNetwork, PierConfig
from repro.core.opgraph import OpSpec, QueryPlan

__all__ = ["OpSpec", "PierConfig", "PierNetwork", "QueryPlan"]
