"""Dtype-parameterized kernel equivalence (the ``REPRO_TEST_DTYPE`` lane).

The float64 suite in ``test_kernels.py`` pins the historical ≤1e-12
contract against the plane-by-plane reference.  This module runs the
fused kernels at the lane dtype (``repro_dtype`` fixture: float64 by
default, float32 under ``REPRO_TEST_DTYPE=float32``) and checks them
against the float64 reference under the *derived* per-dtype bound from
:mod:`repro.numerics.tolerances` — plus the boundary-validation and
bit-identity guarantees the dtype refactor introduced:

- at float64 the dtype-parameterized path is bit-identical to the
  default path (the "float64 unchanged" acceptance criterion);
- at float32 one sweep stays within ``equivalence_tol(float32)``
  (~1.2e-5) of the float64 reference;
- mixed-dtype buffers and ghosts fail loudly at every kernel boundary.
"""

import numpy as np
import pytest

from repro.numerics.kernels import (
    SweepWorkspace,
    _default_slab,
    block_sweep,
    gauss_seidel_sweep,
    jacobi_sweep,
)
from repro.numerics.obstacle import (
    membrane_problem,
    options_pricing_problem,
    torsion_problem,
)
from repro.numerics.richardson import projected_richardson
from repro.numerics.tolerances import equivalence_tol
from repro.solvers.halo import BlockState

from test_kernels import (  # same-directory module (pytest prepend mode)
    reference_block_sweep,
    reference_sweep,
    wiggled_start,
)

PROBLEM_FACTORIES = {
    "membrane": membrane_problem,
    "torsion": torsion_problem,
    "options": options_pricing_problem,
}


@pytest.mark.parametrize("kind", sorted(PROBLEM_FACTORIES))
@pytest.mark.parametrize("sweep", ["jacobi", "gauss_seidel"])
class TestWholeGridAtDtype:
    def test_matches_float64_reference_within_dtype_bound(
            self, kind, sweep, repro_dtype):
        n = 10
        problem = PROBLEM_FACTORIES[kind](n)
        delta = problem.jacobi_delta()
        tol = equivalence_tol(repro_dtype)
        ws = SweepWorkspace(problem, delta, dtype=repro_dtype)
        assert ws.dtype == repro_dtype
        kernel = jacobi_sweep if sweep == "jacobi" else gauss_seidel_sweep
        u = wiggled_start(problem)
        cur = u.astype(repro_dtype)
        nxt = ws.rotation_buffer()
        assert nxt.dtype == repro_dtype
        diff = kernel(ws, cur, nxt)
        want, want_diff = reference_sweep(problem, u, delta, sweep)
        assert np.max(np.abs(nxt.astype(np.float64) - want)) <= tol
        assert abs(diff - want_diff) <= tol

    def test_float64_lane_is_bit_identical_to_default_path(self, kind, sweep):
        """Passing dtype=float64 explicitly must not change a single bit
        relative to the pre-dtype construction."""
        problem = PROBLEM_FACTORIES[kind](8)
        delta = problem.optimal_delta()  # a ≠ 0: the affine path too
        kernel = jacobi_sweep if sweep == "jacobi" else gauss_seidel_sweep
        u = wiggled_start(problem, seed=11)
        ws_default = SweepWorkspace(problem, delta)
        ws_explicit = SweepWorkspace(problem, delta, dtype="float64")
        a, b = ws_default.rotation_buffer(), ws_explicit.rotation_buffer()
        d1 = kernel(ws_default, u, a)
        d2 = kernel(ws_explicit, u, b)
        assert d1 == d2
        np.testing.assert_array_equal(a, b)


class TestBlockAtDtype:
    @pytest.mark.parametrize("order", ["gauss_seidel", "jacobi"])
    @pytest.mark.parametrize("lo,hi", [(0, 4), (3, 7), (5, 9)])
    def test_ghost_block_within_dtype_bound(self, order, lo, hi, repro_dtype):
        n = 9
        problem = torsion_problem(n)
        delta = problem.jacobi_delta()
        tol = equivalence_tol(repro_dtype)
        u = wiggled_start(problem, seed=1)
        block64 = u[lo:hi].copy()
        gb64 = u[lo - 1].copy() if lo > 0 else None
        ga64 = u[hi].copy() if hi < n else None
        ws = SweepWorkspace(problem, delta, lo=lo, hi=hi, dtype=repro_dtype)
        block = block64.astype(repro_dtype)
        gb = None if gb64 is None else gb64.astype(repro_dtype)
        ga = None if ga64 is None else ga64.astype(repro_dtype)
        nxt = ws.rotation_buffer()
        diff = block_sweep(ws, block, nxt, gb, ga, order=order)
        want, want_diff = reference_block_sweep(
            problem, block64, lo, hi, delta, gb64, ga64, order
        )
        assert np.max(np.abs(nxt.astype(np.float64) - want)) <= tol
        assert abs(diff - want_diff) <= tol

    def test_blockstate_carries_dtype(self, repro_dtype):
        problem = membrane_problem(8)
        state = BlockState(problem=problem, lo=2, hi=6,
                           delta=problem.jacobi_delta(), dtype=repro_dtype)
        assert state.block.dtype == repro_dtype
        assert state.ghost_below.dtype == repro_dtype
        assert state.ghost_above.dtype == repro_dtype
        state.sweep()
        assert state.block.dtype == repro_dtype

    def test_multi_sweep_convergence_at_dtype(self, repro_dtype):
        """A full solve at the lane dtype converges and lands within the
        per-dtype bound of the float64 solution."""
        problem = membrane_problem(10)
        res64 = projected_richardson(problem, tol=1e-4)
        res = projected_richardson(problem, tol=1e-4, dtype=repro_dtype)
        assert res.converged
        assert res.u.dtype == repro_dtype
        # tol=1e-4 dominates single-sweep rounding: iteration counts and
        # iterates agree across precisions at this tolerance.
        assert res.relaxations == res64.relaxations
        drift = np.max(np.abs(res.u.astype(np.float64) - res64.u))
        assert drift <= 10 * equivalence_tol(repro_dtype)


class TestDtypeBoundaries:
    """Mixed dtypes must fail loudly at every kernel entry."""

    def make(self, dtype):
        problem = membrane_problem(6)
        ws = SweepWorkspace(problem, problem.jacobi_delta(), lo=1, hi=5,
                            dtype=dtype)
        u = problem.feasible_start().astype(dtype)[1:5].copy()
        return problem, ws, u

    @pytest.mark.parametrize("ws_dtype,buf_dtype", [
        (np.float32, np.float64), (np.float64, np.float32),
    ])
    def test_wrong_cur_rejected(self, ws_dtype, buf_dtype):
        _, ws, _ = self.make(ws_dtype)
        bad = np.zeros((4, 6, 6), dtype=buf_dtype)
        good = ws.rotation_buffer()
        with pytest.raises(ValueError, match="mixed-dtype"):
            jacobi_sweep(ws, bad, good)
        with pytest.raises(ValueError, match="mixed-dtype"):
            gauss_seidel_sweep(ws, good, bad)

    def test_wrong_ghost_rejected(self):
        _, ws, u = self.make(np.float32)
        nxt = ws.rotation_buffer()
        bad_ghost = np.zeros((6, 6))  # float64
        with pytest.raises(ValueError, match="ghost_below"):
            block_sweep(ws, u, nxt, bad_ghost, None)
        with pytest.raises(ValueError, match="ghost_above"):
            block_sweep(ws, u, nxt, None, bad_ghost)

    def test_blockstate_rejects_mixed_ghost_and_warm_start(self):
        problem = membrane_problem(8)
        state = BlockState(problem=problem, lo=2, hi=6,
                           delta=problem.jacobi_delta(), dtype=np.float32)
        with pytest.raises(ValueError, match="mixed-dtype"):
            state.update_ghost_below(np.zeros((8, 8)))
        with pytest.raises(ValueError, match="mixed-dtype"):
            state.update_ghost_above(np.zeros((8, 8)))
        with pytest.raises(ValueError, match="mixed-dtype"):
            state.warm_start(np.zeros((4, 8, 8)))

    def test_sub_floor_tolerance_warns_but_runs_to_cap(self):
        """The sequential entry point keeps the 'tol=~0, run exactly N
        sweeps' idiom alive with a warning instead of raising."""
        problem = membrane_problem(6)
        with pytest.warns(RuntimeWarning, match="termination floor"):
            res = projected_richardson(problem, tol=1e-9, dtype="float32",
                                       max_relaxations=3)
        assert not res.converged
        assert res.relaxations == 3

    def test_unsupported_dtypes_rejected_at_construction(self):
        problem = membrane_problem(4)
        for bad in (np.float16, np.int64, "complex128"):
            with pytest.raises(ValueError, match="unsupported|not a dtype"):
                SweepWorkspace(problem, problem.jacobi_delta(), dtype=bad)
            with pytest.raises(ValueError):
                BlockState(problem=problem, lo=0, hi=4,
                           delta=problem.jacobi_delta(), dtype=bad)


class TestWorkspaceDtypeInternals:
    def test_constraint_and_rhs_slabs_cast_once(self):
        problem = torsion_problem(6)  # two-sided constraint + constant b
        ws = SweepWorkspace(problem, problem.jacobi_delta(), dtype=np.float32)
        assert ws.lower.dtype == np.float32
        assert ws.upper.dtype == np.float32
        assert isinstance(ws.db, float)  # constant rhs stays a scalar
        ws64 = SweepWorkspace(problem, problem.jacobi_delta())
        # float64 default: the problem's own field views, no copies.
        assert ws64.lower.base is problem.constraint.lower

    def test_float32_doubles_planes_per_slab(self):
        target = 12288  # small enough that a 16³ block needs several slabs
        s64 = _default_slab(16, 16, np.dtype(np.float64).itemsize,
                            target=target)
        s32 = _default_slab(16, 16, np.dtype(np.float32).itemsize,
                            target=target)
        assert s64 < 16
        assert s32 == 2 * s64
