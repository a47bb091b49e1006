"""Shared utilities: ring arithmetic, Bloom filters, Zipf sampling, RNG, counters.

These are the leaf dependencies of every other subpackage; nothing in
``repro.util`` imports from elsewhere in the project.
"""

from repro.util.bloom import BloomFilter
from repro.util.errors import (
    CatalogError,
    DhtError,
    PierError,
    PlanError,
    SimulationError,
    SqlError,
)
from repro.util.ids import (
    ID_BITS,
    ID_SPACE,
    distance_cw,
    in_interval,
    node_id_for,
    sha1_id,
)
from repro.util.rng import SeededRng
from repro.util.stats import Counter
from repro.util.zipf import ZipfSampler

__all__ = [
    "BloomFilter",
    "CatalogError",
    "Counter",
    "DhtError",
    "ID_BITS",
    "ID_SPACE",
    "PierError",
    "PlanError",
    "SeededRng",
    "SimulationError",
    "SqlError",
    "ZipfSampler",
    "distance_cw",
    "in_interval",
    "node_id_for",
    "sha1_id",
]
