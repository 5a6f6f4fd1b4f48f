"""The P2PDC environment facade.

Wires the paper's Figure 2 architecture onto a deployment: on every peer
an environment bus, a topology client and a task executor (which owns
the peer's P2PSAP protocol instance); on the submitting peer
additionally the centralized topology server, the task manager and the
fault-tolerance extension.  The paper's user daemon commands are
:meth:`P2PDC.run` (``run``) and :meth:`P2PDC.shutdown` (``exit``).
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Optional

from ..p2psap.context import Scheme
from ..simnet.kernel import Event, Simulator
from ..simnet.network import Network
from .env_bus import EnvBus
from .fault_tolerance import FaultToleranceManager
from .programming_model import Application
from .task_execution import TaskExecutor
from .task_manager import TaskManager, TaskRun
from .topology_manager import TopologyClient, TopologyServer

__all__ = ["P2PDC"]


class P2PDC:
    """One deployment of the environment over a simulated network.

    Parameters
    ----------
    sim, network:
        The substrate (typically from ``nicta_testbed``).
    server_name:
        The submitting peer hosting the centralized components; defaults
        to the first node.
    enable_fault_tolerance:
        Turn the fault-tolerance extension on (off reproduces the
        paper's current version exactly).
    resources:
        Optional :class:`~repro.resources.ResourceContext` every peer's
        executor (and thus every solve in this deployment) resolves its
        pooled resources against; ``None`` = the process default.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        server_name: Optional[str] = None,
        enable_fault_tolerance: bool = False,
        resources=None,
    ):
        if not network.nodes:
            raise ValueError("network has no nodes")
        self.sim = sim
        self.network = network
        self.server_name = server_name or next(iter(network.nodes))
        if self.server_name not in network.nodes:
            raise ValueError(f"unknown server node {self.server_name!r}")
        self.resources = resources

        self.buses: dict[str, EnvBus] = {}
        self.executors: dict[str, TaskExecutor] = {}
        self.clients: dict[str, TopologyClient] = {}
        for name in network.nodes:
            bus = EnvBus(sim, network, name)
            self.buses[name] = bus
            self.executors[name] = TaskExecutor(sim, bus, resources=resources)

        server_bus = self.buses[self.server_name]
        self.topology = TopologyServer(sim, server_bus)
        self.task_manager = TaskManager(sim, server_bus, self.topology)
        self.fault_tolerance = (
            FaultToleranceManager(sim, self.topology)
            if enable_fault_tolerance else None
        )
        if self.fault_tolerance is not None:
            for executor in self.executors.values():
                executor.set_checkpoint_sink(self.fault_tolerance.checkpoint_sink)

        # Topology clients join at construction (peers are already up
        # when the user submits, as on the testbed).
        for name in network.nodes:
            client = TopologyClient(sim, self.buses[name], self.server_name)
            self.clients[name] = client
            client.join()
        self._shut_down = False

    # -- lookups -------------------------------------------------------------------

    def executor(self, node_name: str) -> TaskExecutor:
        return self.executors[node_name]

    def application(self, name: str) -> Application:
        apps = self.executors[self.server_name].applications
        try:
            return apps[name]
        except KeyError:
            raise LookupError(
                f"application {name!r} not registered; known: {sorted(apps)}"
            ) from None

    # -- deployment-wide operations ----------------------------------------------------

    def register_everywhere(self, app: Application) -> None:
        """Install an application on every peer (code distribution)."""
        for executor in self.executors.values():
            executor.register(app)

    def run(
        self,
        app_name: str,
        params: Optional[Mapping[str, Any]] = None,
        n_peers: Optional[int] = None,
        scheme: Optional[Scheme | str] = None,
    ) -> Event:
        """Launch ``app_name``: the paper's ``run`` command, with the
        peer count and scheme overridable at start time."""
        app = self.application(app_name)
        if self.fault_tolerance is not None:
            # Arm failure detection for the peers about to be collected.
            done = self.task_manager.run(app, params=params, n_peers=n_peers,
                                         scheme=scheme)
            current = self.task_manager._current
            if current is not None:
                self.fault_tolerance.watch(current.peer_names)
            return done
        return self.task_manager.run(app, params=params, n_peers=n_peers,
                                     scheme=scheme)

    def run_to_completion(
        self,
        app_name: str,
        params: Optional[Mapping[str, Any]] = None,
        n_peers: Optional[int] = None,
        scheme: Optional[Scheme | str] = None,
        timeout: Optional[float] = None,
    ) -> TaskRun:
        """Convenience for harnesses: submit, drive the simulator until
        the run completes, return the TaskRun."""
        def driver():
            # Let the peer population register with the topology server
            # first (JOINs cross the network), as a real user would see
            # peers appear before submitting.
            while len(self.topology.peers) < len(self.network.nodes):
                yield self.sim.timeout(0.05)
            return (yield self.run(app_name, params=params, n_peers=n_peers,
                                   scheme=scheme))

        proc = self.sim.spawn(driver(), name="run-driver")
        # Not run(): background processes (ping loops) keep the event
        # queue non-empty forever, so it never "drains".
        horizon = math.inf if timeout is None else timeout
        if not self.sim.run_until(proc, horizon):
            raise TimeoutError(
                f"run {app_name!r} did not complete within "
                f"{timeout} sim-seconds"
            )
        return proc.value

    def shutdown(self) -> None:
        """Tear everything down (the paper's ``exit`` command)."""
        if self._shut_down:
            return
        self._shut_down = True
        for client in self.clients.values():
            client.close()
        self.topology.close()
        for executor in self.executors.values():
            executor.close()
        for bus in self.buses.values():
            bus.close()
