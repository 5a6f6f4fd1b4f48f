"""Testbed topology builders.

The paper's experiments run on the NICTA testbed: 38 identical machines
(1 GHz, 1 GB) on 100 Mbit Ethernet, configured through OMF experiment
descriptions into either a single cluster or two clusters joined by a
Netem-emulated Internet path with 100 ms latency.

:func:`nicta_testbed` reproduces that environment; :func:`split_clusters`
implements the 1-cluster / 2-cluster scenarios of Section V.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from .kernel import Simulator
from .network import Netem, Network

__all__ = [
    "TestbedSpec",
    "NICTA_SPEC",
    "nicta_testbed",
    "split_clusters",
    "heterogeneous_testbed",
]


@dataclasses.dataclass(frozen=True)
class TestbedSpec:
    """Physical description of a testbed.

    Defaults are the NICTA testbed of the paper (Section V.A).
    """

    __test__ = False  # not a pytest class, despite the name

    n_machines: int = 38
    cpu_hz: float = 1e9
    mem_bytes: int = 1 << 30
    ethernet_bps: float = 100e6
    lan_delay: float = 0.0001  # 100 us switched-Ethernet RTT/2
    wan_delay: float = 0.1     # the paper's Netem setting: 100 ms
    wan_loss: float = 0.0
    wan_jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.n_machines <= 0:
            raise ValueError("n_machines must be positive")


NICTA_SPEC = TestbedSpec()


def nicta_testbed(
    sim: Simulator,
    n_peers: int,
    n_clusters: int = 1,
    spec: TestbedSpec = NICTA_SPEC,
    seed: int = 0,
) -> Network:
    """Build the NICTA testbed with ``n_peers`` machines in ``n_clusters``.

    Peers are named ``peer00..peerNN`` and split into clusters as evenly
    as possible (the paper splits machines "into 2 clusters connected via
    Internet").  Intra-cluster links are 100 Mbit low-latency Ethernet;
    inter-cluster links carry the Netem WAN impairment.
    """
    if n_peers > spec.n_machines:
        raise ValueError(
            f"NICTA testbed has {spec.n_machines} machines; asked for {n_peers}"
        )
    if n_clusters < 1:
        raise ValueError("need at least one cluster")
    if n_clusters > n_peers:
        raise ValueError("more clusters than peers")

    net = Network(
        sim,
        seed=seed,
        intra_bandwidth_bps=spec.ethernet_bps,
        intra_netem=Netem(delay=spec.lan_delay),
        inter_bandwidth_bps=spec.ethernet_bps,
        inter_netem=Netem(delay=spec.wan_delay, loss=spec.wan_loss, jitter=spec.wan_jitter),
    )
    assignment = split_clusters(n_peers, n_clusters)
    for i in range(n_peers):
        net.add_node(
            f"peer{i:02d}",
            cpu_hz=spec.cpu_hz,
            mem_bytes=spec.mem_bytes,
            cluster=f"cluster{assignment[i]}",
        )
    return net


def split_clusters(n_peers: int, n_clusters: int) -> list[int]:
    """Assign peer indices to clusters contiguously and evenly.

    Contiguity matters: the solver assigns plane ranges to peers in index
    order, so a contiguous split puts exactly ``n_clusters - 1`` solver
    neighbour pairs across the WAN — matching how the paper's OEDL files
    place IP addresses "so that they are in the desired cluster".

    >>> split_clusters(5, 2)
    [0, 0, 0, 1, 1]
    """
    if n_clusters < 1 or n_peers < n_clusters:
        raise ValueError("invalid peer/cluster counts")
    base, extra = divmod(n_peers, n_clusters)
    out: list[int] = []
    for c in range(n_clusters):
        out.extend([c] * (base + (1 if c < extra else 0)))
    return out


def heterogeneous_testbed(
    sim: Simulator,
    cpu_hz_list: Sequence[float],
    n_clusters: int = 1,
    spec: TestbedSpec = NICTA_SPEC,
    seed: int = 0,
    background_loads: Optional[Sequence[float]] = None,
) -> Network:
    """A testbed of peers with differing speeds and background loads.

    Not part of the paper's evaluation but of its motivation: P2P HPC must
    tolerate "heterogeneity ... i.e. processors, OS, bandwidth".  Used by
    the volatile-peers example.
    """
    n = len(cpu_hz_list)
    if n == 0:
        raise ValueError("need at least one peer")
    if background_loads is not None and len(background_loads) != n:
        raise ValueError("background_loads length must match cpu_hz_list")
    net = Network(
        sim,
        seed=seed,
        intra_bandwidth_bps=spec.ethernet_bps,
        intra_netem=Netem(delay=spec.lan_delay),
        inter_bandwidth_bps=spec.ethernet_bps,
        inter_netem=Netem(delay=spec.wan_delay, loss=spec.wan_loss, jitter=spec.wan_jitter),
    )
    assignment = split_clusters(n, n_clusters)
    for i, hz in enumerate(cpu_hz_list):
        node = net.add_node(
            f"peer{i:02d}", cpu_hz=hz, mem_bytes=spec.mem_bytes,
            cluster=f"cluster{assignment[i]}",
        )
        if background_loads is not None:
            node.background_load = background_loads[i]
    return net
