"""Distributed Hash Table substrate.

PIER treats the DHT as its communication *and* temporary-storage layer.
This package provides:

* :mod:`repro.dht.chord` -- the primary overlay's node. Its public
  methods are the PIER-facing API the query engine calls: ``put / get /
  renew / lscan / new_data / route / broadcast / send_direct``,
  mirroring the original system, plus one ``on_deliver`` upcall.
* :mod:`repro.dht.ring` -- Chord membership and upkeep: successor
  lists, finger tables, stabilization, key handoff.
* :mod:`repro.dht.routing` -- recursive multi-hop routing with acked
  hops, lookups, O(log N)-depth finger-table broadcast.
* :mod:`repro.dht.storage` -- soft-state storage (TTL + renewal), the
  mechanism that lets PIER survive churn without distributed deletion.
* :mod:`repro.dht.rpc` -- how a node waits for an answer: one request
  table behind ``expect`` / ``settle``.
* :mod:`repro.dht.messages` -- the overlay's wire messages (routes,
  lookups, broadcasts, hop bundles).
* :mod:`repro.dht.config` -- ``DhtConfig``, the overlay's knobs.
* :mod:`repro.dht.bootstrap` -- ring construction, either via the real
  join protocol or via an oracle (for large benchmark rings).
"""

from repro.dht.bootstrap import build_chord_ring, join_chord_ring
from repro.dht.chord import ChordNode, NodeRef
from repro.dht.config import DhtConfig
from repro.dht.storage import SoftStateStore, StoredItem

__all__ = [
    "ChordNode",
    "DhtConfig",
    "NodeRef",
    "SoftStateStore",
    "StoredItem",
    "build_chord_ring",
    "join_chord_ring",
]
