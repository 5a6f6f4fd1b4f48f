"""Discrete-event network substrate (the simulated NICTA testbed).

Submodules
----------
kernel
    Virtual-time event loop, generator-based processes, FIFO channels.
network
    Nodes with a CPU-cost model, links with bandwidth/latency/Netem
    impairments, cluster-aware routing.
topology
    Builders for the NICTA testbed and heterogeneous variants.
"""

from .kernel import (
    AllOfOr,
    Channel,
    DeadlockError,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .network import Link, Netem, Network, NetworkError, NoRouteError, Node, Packet
from .topology import (
    NICTA_SPEC,
    TestbedSpec,
    heterogeneous_testbed,
    nicta_testbed,
    split_clusters,
)

__all__ = [
    "AllOfOr", "Channel", "DeadlockError", "Event", "Interrupt",
    "Process", "SimulationError", "Simulator", "Timeout",
    "Link", "Netem", "Network", "NetworkError", "NoRouteError", "Node", "Packet",
    "NICTA_SPEC", "TestbedSpec", "heterogeneous_testbed", "nicta_testbed",
    "split_clusters",
]
