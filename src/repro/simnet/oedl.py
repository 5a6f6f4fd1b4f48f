"""OEDL-style declarative experiment descriptions.

The paper writes "plural description files, using OMF's Experiment
Description Language (OEDL), corresponding to different scenarios", each
containing the network topology (peer/cluster placement), network
parameters (the inter-cluster latency), and the application with its
parameters.

:class:`ExperimentDescription` is the Python analogue: a declarative
object that fully determines one experiment run — topology, impairments,
application parameters and seed — plus :meth:`materialize` which builds
the simulator and network for it.  Experiment
harnesses construct these descriptions and never touch the substrate
directly, mirroring OMF's separation between description and execution.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

from .kernel import Simulator
from .network import Network
from .topology import NICTA_SPEC, TestbedSpec, nicta_testbed

__all__ = ["ExperimentDescription", "Deployment"]


@dataclasses.dataclass(frozen=True)
class ExperimentDescription:
    """Everything needed to reproduce one run, as data.

    Attributes mirror the contents the paper lists for its OEDL files:

    - topology: ``n_peers``, ``n_clusters`` and the testbed ``spec``
      (peer IP/cluster assignment is derived deterministically);
    - network parameters: the WAN latency lives in ``spec.wan_delay``
      (100 ms in the paper);
    - application: free-form ``app_name`` and ``app_params`` handed to the
      P2PDC ``run`` command.
    """

    name: str
    n_peers: int
    n_clusters: int = 1
    spec: TestbedSpec = NICTA_SPEC
    app_name: str = ""
    app_params: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_peers < 1:
            raise ValueError("n_peers must be >= 1")
        if not 1 <= self.n_clusters <= self.n_peers:
            raise ValueError("n_clusters must be in [1, n_peers]")
        # Freeze the mapping so descriptions are safely hashable-by-value.
        object.__setattr__(self, "app_params", dict(self.app_params))

    def with_params(self, **updates: Any) -> "ExperimentDescription":
        """A copy with app_params entries replaced/added."""
        params = dict(self.app_params)
        params.update(updates)
        return dataclasses.replace(self, app_params=params)

    def materialize(self) -> "Deployment":
        """Build the simulator and network for this description."""
        sim = Simulator()
        net = nicta_testbed(
            sim, self.n_peers, n_clusters=self.n_clusters,
            spec=self.spec, seed=self.seed,
        )
        return Deployment(description=self, sim=sim, network=net)

    def summary(self) -> str:
        """One-line human-readable description, for harness logs."""
        wan = f"{self.spec.wan_delay * 1e3:.0f}ms"
        return (
            f"{self.name}: {self.n_peers} peer(s) / {self.n_clusters} "
            f"cluster(s), WAN {wan}, app={self.app_name or '-'} "
            f"params={dict(self.app_params)}"
        )


@dataclasses.dataclass
class Deployment:
    """A materialized experiment: live simulator and network."""

    description: ExperimentDescription
    sim: Simulator
    network: Network

    @property
    def peer_names(self) -> list[str]:
        return list(self.network.nodes.keys())
