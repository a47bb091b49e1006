"""Distributed Hash Table substrate.

PIER treats the DHT as its communication *and* temporary-storage layer.
This package provides:

* :mod:`repro.dht.chord` -- the primary overlay (Chord rings: successor
  lists, finger tables, recursive multi-hop routing, stabilization).
* :mod:`repro.dht.storage` -- soft-state storage (TTL + renewal), the
  mechanism that lets PIER survive churn without distributed deletion.
* :mod:`repro.dht.broadcast` -- O(log N)-depth query dissemination over
  finger tables.
* :mod:`repro.dht.api` -- the PIER-facing facade: ``put / get / lscan /
  newData / renew / route``, mirroring the API of the original system.
* :mod:`repro.dht.bootstrap` -- ring construction, either via the real
  join protocol or via an oracle (for large benchmark rings).
"""

from repro.dht.api import DhtApi
from repro.dht.bootstrap import build_chord_ring, join_chord_ring
from repro.dht.chord import ChordNode, NodeRef
from repro.dht.config import DhtConfig
from repro.dht.storage import SoftStateStore, StoredItem

__all__ = [
    "ChordNode",
    "DhtApi",
    "DhtConfig",
    "NodeRef",
    "SoftStateStore",
    "StoredItem",
    "build_chord_ring",
    "join_chord_ring",
]
