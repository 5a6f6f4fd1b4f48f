"""The task manager.

"Task manager is the main component that calls functions of the
application.  When an user starts an application using the run command,
this component finds the corresponding application via application name
and calls the Problem_Definition() function.  It requests peers from
Topology manager on the basis of number of peers needed by application
and sends sub-tasks with their data to collected peers.  When all peers
have sent the results, Task manager calls the Results_Aggregation()
function."

The current version is centralized: the task manager lives on the
submitting peer, alongside the topology server.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Optional

from ..p2psap.context import Scheme
from ..simnet.kernel import Event, Simulator
from .env_bus import EnvBus
from .programming_model import Application, ProblemDefinition
from .topology_manager import TopologyServer

__all__ = ["TaskManager", "TaskRun"]


@dataclasses.dataclass
class TaskRun:
    """State of one ``run`` invocation."""

    app: Application
    definition: ProblemDefinition
    peer_names: list[str]
    params: dict
    results: dict[int, Any] = dataclasses.field(default_factory=dict)
    errors: dict[int, str] = dataclasses.field(default_factory=dict)
    done: Optional[Event] = None
    started_at: float = 0.0
    finished_at: float = 0.0
    output: Any = None

    @property
    def n_peers(self) -> int:
        return len(self.peer_names)

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at


class TaskManager:
    """Submitting-peer component orchestrating one task at a time."""

    def __init__(self, sim: Simulator, bus: EnvBus, topology: TopologyServer):
        self.sim = sim
        self.bus = bus
        self.node = bus.node
        self.topology = topology
        bus.register("RESULT", self._handle_result)
        self._current: Optional[TaskRun] = None

    # -- result collection ---------------------------------------------------------

    def _handle_result(self, src: str, body: dict) -> None:
        if self._current is None:
            return
        run = self._current
        rank = body["rank"]
        if "error" in body:
            run.errors[rank] = body["error"]
        else:
            run.results[rank] = body.get("result")
        if len(run.results) + len(run.errors) == run.n_peers:
            self._finish(run)

    def _finish(self, run: TaskRun) -> None:
        run.finished_at = self.sim.now
        self.topology.release(run.peer_names)
        self._current = None
        if run.errors:
            run.done.fail(RuntimeError(
                f"{len(run.errors)} sub-task(s) failed: {run.errors}"
            ))
            return
        ordered = [run.results[k] for k in range(run.n_peers)]
        run.output = run.app.results_aggregation(ordered)
        run.done.succeed(run)

    # -- the run command -----------------------------------------------------------------

    def run(
        self,
        app: Application,
        params: Optional[Mapping[str, Any]] = None,
        n_peers: Optional[int] = None,
        scheme: Optional[Scheme | str] = None,
    ) -> Event:
        """Launch ``app``; the returned event fires with the TaskRun.

        ``n_peers`` and ``scheme`` override the problem definition — the
        paper's "overridden at start time in command line".
        """
        if self._current is not None:
            raise RuntimeError("task manager is busy (current version: one task)")
        params = dict(params or {})
        if n_peers is not None:
            params["n_peers"] = n_peers
        if scheme is not None:
            params["scheme"] = Scheme.parse(scheme).value
        definition = app.problem_definition(params)

        peer_names = self.topology.collect(definition.n_peers)

        run = TaskRun(
            app=app,
            definition=definition,
            peer_names=peer_names,
            params=params,
            done=self.sim.event(),
            started_at=self.sim.now,
        )
        self._current = run
        for rank, peer in enumerate(peer_names):
            self.bus.send(peer, {
                "kind": "SUBTASK",
                "app_name": app.name,
                "rank": rank,
                "peer_names": peer_names,
                "subtask": definition.subtasks[rank],
                "scheme": definition.scheme.value,
                "params": params,
            })
        return run.done
