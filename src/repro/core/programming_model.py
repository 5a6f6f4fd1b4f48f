"""The P2PDC programming model.

"In order to develop an application, programmers have to write code for
only three functions corresponding to the following three activities:
Problem_Definition(), Calculate() and Results_Aggregation()."

:class:`Application` is the contract: subclasses implement the three
functions.  ``calculate`` is a *generator* (it runs as a process on the
peer's simulated machine) and talks to other peers exclusively through
the reduced communication API of its :class:`TaskContext` —
:meth:`TaskContext.p2p_send` and :meth:`TaskContext.p2p_receive` (+
non-blocking variants, and :meth:`TaskContext.p2p_post`, a send whose
completion nobody waits on), the P2P_Send / P2P_Receive of the paper.  The
communication *mode* behind those calls is never chosen by the
programmer: it follows the scheme of computation and the topology, via
P2PSAP's adaptation rules.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Generator, Mapping, Optional, Sequence

from ..p2psap.context import CommMode, Scheme

if TYPE_CHECKING:  # pragma: no cover
    from .task_execution import TaskExecutor

__all__ = ["ProblemDefinition", "Application", "TaskContext"]


@dataclasses.dataclass
class ProblemDefinition:
    """Output of ``Problem_Definition()``.

    "programmers define the problem in indicating the number of
    sub-tasks and sub-task data.  The computational scheme and number of
    peers necessary can also be set in this function but they can be
    overridden at start time in command line."
    """

    subtasks: list[Any]
    scheme: Scheme = Scheme.HYBRID
    n_peers: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.subtasks:
            raise ValueError("a problem needs at least one sub-task")
        self.scheme = Scheme.parse(self.scheme)
        if self.n_peers is None:
            self.n_peers = len(self.subtasks)
        if self.n_peers != len(self.subtasks):
            raise ValueError(
                f"{len(self.subtasks)} sub-tasks for {self.n_peers} peers; "
                "P2PDC assigns exactly one sub-task per collected peer"
            )


class Application:
    """Base class for P2PDC applications.

    Register instances with the environment under :attr:`name`; the
    ``run`` command looks applications up by name on every peer, so the
    same registry must be installed everywhere (code distribution is out
    of scope for the paper's current version and for ours).
    """

    #: Unique application name used by the ``run`` command.
    name = "application"

    def problem_definition(self, params: Mapping[str, Any]) -> ProblemDefinition:
        """Split the problem into sub-tasks (runs on the submitting peer)."""
        raise NotImplementedError

    def calculate(self, ctx: "TaskContext") -> Generator:
        """The sub-task body (runs on every collected peer).

        Must be a generator: yield events from ``ctx`` (sends, receives,
        compute charges).  Its return value is the sub-task result sent
        back to the task manager.
        """
        raise NotImplementedError

    def results_aggregation(self, results: Sequence[Any]) -> Any:
        """Combine the per-peer results (runs on the submitting peer).

        ``results[k]`` is the return value of rank k's ``calculate``.
        """
        raise NotImplementedError


class TaskContext:
    """Everything a sub-task may touch, handed to ``calculate``.

    The communication operations are deliberately minimal ("The set of
    communication operations is reduced.  There are only a send and a
    receive operations").
    """

    def __init__(
        self,
        executor: "TaskExecutor",
        rank: int,
        n_workers: int,
        peer_names: Sequence[str],
        subtask: Any,
        scheme: Scheme,
        params: Mapping[str, Any],
    ):
        self._executor = executor
        self.rank = rank
        self.n_workers = n_workers
        self.peer_names = list(peer_names)
        self.subtask = subtask
        self.scheme = scheme
        self.params = dict(params)

    # -- environment handles ------------------------------------------------------

    @property
    def sim(self):
        return self._executor.sim

    @property
    def node(self):
        """The simulated machine: ``yield ctx.node.compute(flops)`` to
        charge computation time."""
        return self._executor.node

    @property
    def resources(self):
        """The :class:`~repro.resources.ResourceContext` this task's
        deployment was built with (``None`` = the process default).
        Delivered through the executor — never through ``params``, whose
        size is modeled wire payload."""
        return getattr(self._executor, "resources", None)

    # -- P2P_Send / P2P_Receive -------------------------------------------------------

    def p2p_send(self, rank: int, payload: Any):
        """P2P_Send: an event completing per the session's current
        communication mode (rendezvous if synchronous, immediate if
        asynchronous) — ``yield`` it either way."""
        return self._executor.send_to_rank(rank, payload)

    def p2p_post(self, rank: int, payload: Any) -> None:
        """P2P_Send for a caller that does not wait on its completion
        (an asynchronous edge's fire-and-forget plane): the same message
        on the wire as :meth:`p2p_send`, without an event to yield."""
        self._executor.post_to_rank(rank, payload)

    def p2p_receive(self, rank: int):
        """P2P_Receive (blocking flavour): event firing with a payload."""
        return self._executor.receive_from_rank(rank)

    def p2p_receive_nowait(self, rank: int) -> tuple[bool, Any]:
        """Non-blocking receive: ``(ok, payload)``."""
        return self._executor.receive_nowait_from_rank(rank)

    def p2p_receive_latest_nowait(self, rank: int) -> tuple[bool, Any]:
        """Non-blocking receive of the freshest pending payload."""
        return self._executor.receive_latest_nowait_from_rank(rank)

    def connect(self, rank: int):
        """Eagerly establish the session to ``rank`` (optional; sends
        connect lazily otherwise).  Yieldable event."""
        return self._executor.ensure_session(rank)

    def session_mode(self, rank: int) -> CommMode:
        """The communication mode of the session to ``rank``, fixed when
        the session opens by its Table I cell: under the hybrid scheme,
        synchronous within a cluster and asynchronous between clusters.
        Raises ``LookupError`` before the session exists."""
        return self._executor.session_mode(rank)

    def link_bandwidth(self, rank: int) -> float:
        """Outgoing link bandwidth towards ``rank`` in bits/s — context
        data an application may rate-limit against (send conflation)."""
        return self._executor.link_bandwidth(rank)

    # -- environment messaging -----------------------------------------------------------

    def env_send(self, rank: int, body: Any) -> None:
        """Small reliable message over the environment bus (fire and
        forget) — for coordination protocols, not bulk data."""
        self._executor.env_send_to_rank(rank, body)

    @property
    def env_inbox(self):
        """FIFO channel of (src_rank, body) environment messages."""
        return self._executor.app_inbox

    # -- extensions --------------------------------------------------------------------

    def checkpoint(self, state: Any) -> None:
        """Hand a recovery checkpoint to the fault-tolerance component."""
        self._executor.store_checkpoint(self.rank, state)
