"""Discrete-event network simulator.

This is the substitute for PlanetLab: a deterministic, single-threaded
event simulator with a wide-area latency model, message loss and churn.
The DHT and query engine run unmodified on top of it; every network
effect the paper's demo exhibits (multi-hop routing, partial results
under churn, in-network combining) is preserved because the simulator
models *messages*, not wall-clock packets.
"""

from repro.sim.churn import ChurnConfig, ChurnProcess
from repro.sim.clock import SimClock
from repro.sim.events import Event
from repro.sim.latency import (
    ConstantLatency,
    GeoLatency,
    LatencyModel,
    UniformLatency,
)
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import SimNode
from repro.sim.processes import PeriodicProcess

__all__ = [
    "ChurnConfig",
    "ChurnProcess",
    "ConstantLatency",
    "Event",
    "GeoLatency",
    "LatencyModel",
    "Network",
    "NetworkConfig",
    "PeriodicProcess",
    "SimClock",
    "SimNode",
    "UniformLatency",
]
