"""Distributed solvers on P2PDC: the paper's obstacle-problem application."""

from .distributed_richardson import (
    BlockReport,
    DistributedSolveReport,
    ObstacleApplication,
    PROBLEM_FACTORIES,
    clear_problem_cache,
    get_problem,
)
from .halo import BlockState, relax_block_plane
from .termination import Action, ExactCoordinator, StreakCoordinator

__all__ = [
    "BlockReport",
    "DistributedSolveReport",
    "ObstacleApplication",
    "PROBLEM_FACTORIES",
    "clear_problem_cache",
    "get_problem",
    "BlockState",
    "relax_block_plane",
    "Action",
    "ExactCoordinator",
    "StreakCoordinator",
]
