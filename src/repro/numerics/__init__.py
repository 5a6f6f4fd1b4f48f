"""Numerical core: the 3-D obstacle problem and projected Richardson.

Fixed-point problem (1) of the paper: find u* ∈ K with
u* = F_δ(u*) = P_K(u* − δ(A·u* − b)), discretized with the 7-point
Laplacian on the unit cube.
"""

from .blocks import BlockAssignment, partition_planes, weighted_partition
from .convergence import DiffCriterion, ResidualHistory, max_diff
from .grid import Grid3D
from .kernels import (
    SweepWorkspace,
    block_sweep,
    gauss_seidel_sweep,
    jacobi_sweep,
)
from .obstacle import (
    ObstacleProblem,
    membrane_problem,
    options_pricing_problem,
    torsion_problem,
)
from .projection import BoxConstraint, unconstrained
from .tolerances import (
    SUPPORTED_DTYPES,
    ToleranceFloorError,
    check_dtype,
    check_termination_tol,
    equivalence_tol,
    min_termination_tol,
    resolve_dtype,
)
from .transfer import (
    TRANSFER_VERSION,
    prolong,
    prolong_iterate,
    restrict,
)
from .richardson import (
    FLOPS_PER_POINT,
    SolveResult,
    projected_richardson,
    relax_plane,
)

__all__ = [
    "BlockAssignment", "partition_planes", "weighted_partition",
    "DiffCriterion", "ResidualHistory", "max_diff",
    "Grid3D",
    "SweepWorkspace", "block_sweep", "gauss_seidel_sweep", "jacobi_sweep",
    "ObstacleProblem", "membrane_problem", "options_pricing_problem",
    "torsion_problem",
    "BoxConstraint", "unconstrained",
    "SUPPORTED_DTYPES", "ToleranceFloorError", "check_dtype",
    "check_termination_tol", "equivalence_tol",
    "min_termination_tol", "resolve_dtype",
    "TRANSFER_VERSION", "prolong", "prolong_iterate", "restrict",
    "FLOPS_PER_POINT", "SolveResult", "projected_richardson", "relax_plane",
]
