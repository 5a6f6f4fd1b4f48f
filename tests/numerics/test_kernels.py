"""Fused sweep kernels ↔ plane-by-plane reference equivalence.

The fused kernels in :mod:`repro.numerics.kernels` must reproduce the
reference relaxation (:func:`repro.numerics.richardson.relax_plane`)
to ≤ 1e-12 on every canonical problem, including ghost-plane blocks and
the AUTO_HALO edge cases, or the distributed solver's cross-checks mean
nothing.
"""

import numpy as np
import pytest

from repro.numerics.grid import Grid3D
from repro.numerics.kernels import (
    SweepWorkspace,
    _default_slab,
    block_sweep,
    gauss_seidel_sweep,
    jacobi_sweep,
)
from repro.numerics.obstacle import (
    ObstacleProblem,
    membrane_problem,
    options_pricing_problem,
    torsion_problem,
)
from repro.numerics.projection import BoxConstraint, unconstrained
from repro.numerics.richardson import relax_plane
from repro.numerics.tolerances import equivalence_tol
from repro.solvers.halo import BlockState, relax_block_plane

# The float64 contract (1e-12), derived from the tolerance module so the
# suite and the module can never disagree; the float32 lane runs the
# dtype-parameterized suite in test_kernels_dtype.py under its own bound.
TOL = equivalence_tol(np.float64)
assert TOL == 1e-12

PROBLEM_FACTORIES = {
    "membrane": membrane_problem,
    "torsion": torsion_problem,
    "options": options_pricing_problem,
}


def reference_sweep(problem, u, delta, sweep):
    """The seed's plane-by-plane loop over relax_plane; returns (u', diff)."""
    n = problem.grid.n
    scratch = np.empty((n, n))
    new_plane = np.empty((n, n))
    diff = 0.0
    src = u.copy()
    if sweep == "jacobi":
        out = np.empty_like(u)
        for z in range(n):
            relax_plane(problem, src, z, delta, new_plane, scratch)
            diff = max(diff, float(np.max(np.abs(new_plane - src[z]))))
            out[z] = new_plane
        return out, diff
    for z in range(n):
        relax_plane(problem, src, z, delta, new_plane, scratch)
        diff = max(diff, float(np.max(np.abs(new_plane - src[z]))))
        src[z] = new_plane
    return src, diff


def reference_block_sweep(problem, block, lo, hi, delta, gb, ga, order):
    """Plane-by-plane block sweep via relax_block_plane; (block', diff)."""
    n = problem.grid.n
    scratch = np.empty((n, n))
    new_plane = np.empty((n, n))
    n_planes = hi - lo
    out = block.copy()
    src = block.copy() if order == "jacobi" else out
    diff = 0.0
    for zl in range(n_planes):
        below = src[zl - 1] if zl > 0 else gb
        above = src[zl + 1] if zl < n_planes - 1 else ga
        relax_block_plane(problem, src, zl, lo + zl, delta,
                          new_plane, scratch, below, above)
        diff = max(diff, float(np.max(np.abs(new_plane - out[zl]))))
        out[zl] = new_plane
    return out, diff


def wiggled_start(problem, seed=0):
    """A feasible but non-trivial iterate (exercises both clip branches)."""
    rng = np.random.default_rng(seed)
    u = problem.feasible_start()
    u += 0.05 * rng.normal(size=u.shape)
    return problem.constraint.project(u, out=u)


@pytest.mark.parametrize("kind", sorted(PROBLEM_FACTORIES))
@pytest.mark.parametrize("sweep", ["jacobi", "gauss_seidel"])
class TestWholeGridEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_matches_reference_over_sweeps(self, kind, sweep, n):
        problem = PROBLEM_FACTORIES[kind](n)
        delta = problem.jacobi_delta()
        ws = SweepWorkspace(problem, delta)
        kernel = jacobi_sweep if sweep == "jacobi" else gauss_seidel_sweep
        cur = wiggled_start(problem)
        ref = cur.copy()
        nxt = ws.rotation_buffer()
        for _ in range(4):
            diff = kernel(ws, cur, nxt)
            cur, nxt = nxt, cur
            ref, ref_diff = reference_sweep(problem, ref, delta, sweep)
            assert abs(diff - ref_diff) <= TOL
        assert np.max(np.abs(cur - ref)) <= TOL

    def test_non_jacobi_delta(self, kind, sweep):
        """delta ≠ 1/diag exercises the a ≠ 0 affine path."""
        problem = PROBLEM_FACTORIES[kind](6)
        delta = problem.optimal_delta()
        ws = SweepWorkspace(problem, delta)
        kernel = jacobi_sweep if sweep == "jacobi" else gauss_seidel_sweep
        cur = wiggled_start(problem, seed=3)
        nxt = ws.rotation_buffer()
        kernel(ws, cur, nxt)
        want, _ = reference_sweep(problem, cur, delta, sweep)
        assert np.max(np.abs(nxt - want)) <= TOL


class TestBlockEquivalence:
    @pytest.mark.parametrize("kind", sorted(PROBLEM_FACTORIES))
    @pytest.mark.parametrize("order", ["gauss_seidel", "jacobi"])
    @pytest.mark.parametrize("lo,hi", [(0, 3), (3, 7), (6, 9), (4, 5), (0, 9)])
    def test_ghost_plane_block_matches_reference(self, kind, order, lo, hi):
        n = 9
        problem = PROBLEM_FACTORIES[kind](n)
        delta = problem.jacobi_delta()
        u = wiggled_start(problem, seed=1)
        block = u[lo:hi].copy()
        gb = u[lo - 1].copy() if lo > 0 else None
        ga = u[hi].copy() if hi < n else None
        ws = SweepWorkspace(problem, delta, lo=lo, hi=hi)
        nxt = ws.rotation_buffer()
        diff = block_sweep(ws, block, nxt, gb, ga, order=order)
        want, want_diff = reference_block_sweep(
            problem, block, lo, hi, delta, gb, ga, order
        )
        assert np.max(np.abs(nxt - want)) <= TOL
        assert abs(diff - want_diff) <= TOL

    def test_blockstate_sweep_equals_reference(self):
        problem = torsion_problem(8)
        state = BlockState(problem=problem, lo=2, hi=6,
                           delta=problem.jacobi_delta())
        gb = state.ghost_below + 0.01
        ga = state.ghost_above - 0.01
        state.update_ghost_below(gb)
        state.update_ghost_above(ga)
        before = state.block.copy()
        diff = state.sweep()
        want, want_diff = reference_block_sweep(
            problem, before, 2, 6, state.delta, gb, ga, "gauss_seidel"
        )
        assert np.max(np.abs(state.block - want)) <= TOL
        assert abs(diff - want_diff) <= TOL

    def test_full_domain_block_equals_whole_grid_kernel(self):
        """A single block covering [0, n) IS the sequential sweep —
        bit-for-bit, which is what the α = 1 solver tests rely on."""
        problem = membrane_problem(7)
        delta = problem.jacobi_delta()
        u = wiggled_start(problem, seed=2)
        ws_grid = SweepWorkspace(problem, delta)
        ws_block = SweepWorkspace(problem, delta, lo=0, hi=7)
        a = u.copy()
        b = u.copy()
        na, nb = ws_grid.rotation_buffer(), ws_block.rotation_buffer()
        d1 = gauss_seidel_sweep(ws_grid, a, na)
        d2 = block_sweep(ws_block, b, nb, None, None, order="gauss_seidel")
        assert d1 == d2
        np.testing.assert_array_equal(na, nb)

    def test_unknown_order_rejected(self):
        problem = membrane_problem(4)
        ws = SweepWorkspace(problem, problem.jacobi_delta())
        u = problem.feasible_start()
        with pytest.raises(ValueError):
            block_sweep(ws, u, ws.rotation_buffer(), None, None, order="sor")


class TestAutoHaloEdges:
    """AUTO_HALO (halos read from u itself) vs the kernels' edge handling."""

    def test_auto_halo_matches_explicit_planes(self):
        problem = membrane_problem(6)
        u = wiggled_start(problem, seed=4)
        out_auto = np.empty((6, 6))
        out_expl = np.empty((6, 6))
        relax_plane(problem, u, 3, problem.jacobi_delta(), out_auto,
                    np.empty((6, 6)))
        relax_plane(problem, u, 3, problem.jacobi_delta(), out_expl,
                    np.empty((6, 6)), below=u[2], above=u[4])
        np.testing.assert_array_equal(out_auto, out_expl)

    @pytest.mark.parametrize("z", [0, 5])
    def test_domain_edges_use_zero_dirichlet(self, z):
        """At z = 0 / z = n−1, AUTO_HALO degrades to the zero boundary —
        and the fused kernel's edge slabs must agree."""
        n = 6
        problem = torsion_problem(n)
        delta = problem.jacobi_delta()
        u = wiggled_start(problem, seed=5)
        want = np.empty((n, n))
        kwargs = {"below": None} if z == 0 else {"above": None}
        relax_plane(problem, u, z, delta, want, np.empty((n, n)), **kwargs)
        ws = SweepWorkspace(problem, delta)
        nxt = ws.rotation_buffer()
        jacobi_sweep(ws, u, nxt)
        assert np.max(np.abs(nxt[z] - want)) <= TOL

    def test_single_plane_grid(self):
        """n = 1: every neighbour is the boundary."""
        grid = Grid3D(1)
        problem = ObstacleProblem(grid=grid, b=grid.full(3.0),
                                  constraint=unconstrained(), name="tiny")
        delta = problem.jacobi_delta()
        ws = SweepWorkspace(problem, delta)
        u = problem.feasible_start()
        nxt = ws.rotation_buffer()
        jacobi_sweep(ws, u, nxt)
        want, _ = reference_sweep(problem, u, delta, "jacobi")
        assert np.max(np.abs(nxt - want)) <= TOL


class TestWorkspaceContract:
    def test_invalid_range_rejected(self):
        problem = membrane_problem(4)
        with pytest.raises(ValueError):
            SweepWorkspace(problem, problem.jacobi_delta(), lo=3, hi=2)
        with pytest.raises(ValueError):
            SweepWorkspace(problem, problem.jacobi_delta(), lo=0, hi=9)

    def test_invalid_delta_rejected(self):
        problem = membrane_problem(4)
        with pytest.raises(ValueError):
            SweepWorkspace(problem, 0.0)

    def test_aliased_buffers_rejected(self):
        problem = membrane_problem(4)
        ws = SweepWorkspace(problem, problem.jacobi_delta())
        u = problem.feasible_start()
        with pytest.raises(ValueError):
            jacobi_sweep(ws, u, u)

    def test_non_contiguous_rejected(self):
        problem = membrane_problem(4)
        ws = SweepWorkspace(problem, problem.jacobi_delta())
        big = np.empty((4, 4, 8))
        with pytest.raises(ValueError):
            jacobi_sweep(ws, problem.feasible_start(), big[:, :, ::2])

    def test_wrong_shape_rejected(self):
        problem = membrane_problem(4)
        ws = SweepWorkspace(problem, problem.jacobi_delta(), lo=1, hi=3)
        u = problem.feasible_start()
        with pytest.raises(ValueError):
            jacobi_sweep(ws, u, np.empty_like(u))

    def test_kernels_do_not_modify_cur_or_ghosts(self):
        problem = membrane_problem(6)
        ws = SweepWorkspace(problem, problem.jacobi_delta(), lo=2, hi=5)
        u = wiggled_start(problem, seed=6)
        block = u[2:5].copy()
        gb, ga = u[1].copy(), u[5].copy()
        snap = (block.copy(), gb.copy(), ga.copy())
        nxt = ws.rotation_buffer()
        for order in ("jacobi", "gauss_seidel"):
            block_sweep(ws, block, nxt, gb, ga, order=order)
            np.testing.assert_array_equal(block, snap[0])
            np.testing.assert_array_equal(gb, snap[1])
            np.testing.assert_array_equal(ga, snap[2])

    def test_non_constant_rhs_uses_field_term(self):
        """Exercises the δ·b array path (none of the canonical problems
        have a non-constant b)."""
        grid = Grid3D(5)
        rng = np.random.default_rng(9)
        problem = ObstacleProblem(
            grid=grid, b=rng.normal(size=grid.shape),
            constraint=BoxConstraint(lower=grid.full(-0.05)),
            name="random-b",
        )
        delta = problem.jacobi_delta()
        ws = SweepWorkspace(problem, delta)
        assert isinstance(ws.db, np.ndarray)
        u = problem.feasible_start()
        nxt = ws.rotation_buffer()
        for sweep, kernel in (("jacobi", jacobi_sweep),
                              ("gauss_seidel", gauss_seidel_sweep)):
            kernel(ws, u, nxt)
            want, _ = reference_sweep(problem, u, delta, sweep)
            assert np.max(np.abs(nxt - want)) <= TOL

    def test_constant_rhs_folds_to_scalar(self):
        problem = torsion_problem(5)
        ws = SweepWorkspace(problem, problem.jacobi_delta())
        assert isinstance(ws.db, float)

    def test_zero_rhs_skips_term(self):
        problem = membrane_problem(5)
        ws = SweepWorkspace(problem, problem.jacobi_delta())
        assert ws.db is None


class TestSlabSize:
    """Slabs size the numpy kernels' scratch: 1 MiB by default, or an
    explicit ``SweepWorkspace(slab=)``.  They never change a bit."""

    def test_default_slab(self):
        problem = membrane_problem(16)
        ws = SweepWorkspace(problem, problem.jacobi_delta())
        assert ws.slab == 16  # 16³ fits the default 1 MiB target

    def test_small_target_shrinks_slabs(self):
        # 3 slab-arrays of 16² float64 planes no longer fit: 2 planes min.
        assert _default_slab(16, 16, 8, target=4096) == 2

    @pytest.mark.parametrize("sweep", [jacobi_sweep, gauss_seidel_sweep])
    def test_slab_does_not_change_results(self, kernel_backend, sweep):
        problem = torsion_problem(8)
        delta = problem.jacobi_delta()
        u = problem.feasible_start()
        ws_whole = SweepWorkspace(problem, delta)
        assert ws_whole.slab == 8
        want = ws_whole.rotation_buffer()
        want_diff = sweep(ws_whole, u, want)
        for slab in (1, 2, 3):
            ws = SweepWorkspace(problem, delta, slab=slab)
            got = ws.rotation_buffer()
            assert sweep(ws, u, got) == want_diff
            np.testing.assert_array_equal(got, want)

    def test_explicit_slab_argument_wins(self):
        problem = membrane_problem(16)
        ws = SweepWorkspace(problem, problem.jacobi_delta(), slab=5)
        assert ws.slab == 5

    @pytest.mark.parametrize("kwargs, match", [
        ({"slab": 0}, "slab must be >= 1"),
        ({"lo": 3, "hi": 3}, "invalid plane range"),
        ({"delta": 0.0}, "delta must be positive"),
    ])
    def test_invalid_workspace_arguments_rejected(self, kwargs, match):
        problem = membrane_problem(8)
        kwargs = {"delta": problem.jacobi_delta(), **kwargs}
        with pytest.raises(ValueError, match=match):
            SweepWorkspace(problem, **kwargs)
