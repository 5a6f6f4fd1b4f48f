"""P2PDC — the environment for P2P high performance distributed computing.

Figure 2 of the paper: user daemon, topology manager, task manager, task
execution, load balancing, fault tolerance, communication (P2PSAP).
The user daemon's commands are :meth:`P2PDC.run` and
:meth:`P2PDC.shutdown`; load balancing is the solver's ``weights``
parameter (shares from :meth:`PeerRecord.effective_speed`).
The programming model reduces application code to three functions —
``Problem_Definition()``, ``Calculate()``, ``Results_Aggregation()`` —
and two communication operations, ``P2P_Send`` and ``P2P_Receive``.
"""

from .env_bus import ENV_PORT, EnvBus
from .environment import P2PDC
from .fault_tolerance import Checkpoint, CheckpointStore, FaultToleranceManager
from .programming_model import Application, ProblemDefinition, TaskContext
from .task_execution import TaskExecutor
from .task_manager import TaskManager, TaskRun
from .topology_manager import (
    MISSED_PINGS_LIMIT,
    PING_PERIOD,
    PeerRecord,
    TopologyClient,
    TopologyServer,
)

__all__ = [
    "ENV_PORT", "EnvBus",
    "P2PDC",
    "Checkpoint", "CheckpointStore", "FaultToleranceManager",
    "Application", "ProblemDefinition", "TaskContext",
    "TaskExecutor",
    "TaskManager", "TaskRun",
    "MISSED_PINGS_LIMIT", "PING_PERIOD", "PeerRecord",
    "TopologyClient", "TopologyServer",
]
