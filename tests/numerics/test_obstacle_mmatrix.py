"""Operator correctness, M-matrix theory, canonical problem instances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics.obstacle import (
    membrane_problem,
    options_pricing_problem,
    torsion_problem,
)
from repro.numerics.richardson import projected_richardson

from mmatrix import (  # same-directory module (pytest prepend mode)
    contraction_factor,
    is_diagonally_dominant,
    is_m_matrix,
    is_z_matrix,
    jacobi_spectral_radius,
    laplacian_matrix_1d,
    laplacian_matrix_3d,
)


class TestOperatorAgainstDense:
    """apply_A must agree with the dense Kronecker Laplacian exactly."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_apply_A_matches_dense(self, n):
        p = membrane_problem(n)
        A = laplacian_matrix_3d(n)
        rng = np.random.default_rng(7)
        u = rng.normal(size=(n, n, n))
        got = p.apply_A(u).ravel()
        want = A @ u.ravel()
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_apply_A_with_zeroth_order_term(self):
        n = 3
        p = options_pricing_problem(n, rate=0.7)
        A = laplacian_matrix_3d(n, c=0.7)
        rng = np.random.default_rng(3)
        u = rng.normal(size=(n, n, n))
        np.testing.assert_allclose(
            p.apply_A(u).ravel(), A @ u.ravel(), rtol=1e-12
        )

    def test_plane_halo_override(self):
        """apply_A_plane with explicit halos equals slicing a full apply."""
        n = 4
        p = membrane_problem(n)
        rng = np.random.default_rng(1)
        u = rng.normal(size=(n, n, n))
        full = p.apply_A(u)
        out = np.empty((n, n))
        p.apply_A_plane(u, 2, out, below=u[1], above=u[3])
        np.testing.assert_allclose(out, full[2], rtol=1e-12)

    def test_diag_and_bounds(self):
        p = membrane_problem(8)
        h = p.grid.h
        assert p.diag == pytest.approx(6.0 / h**2)
        A = laplacian_matrix_3d(3)
        p3 = membrane_problem(3)
        eigs = np.linalg.eigvalsh(A)
        assert p3.lambda_min() == pytest.approx(eigs.min(), rel=1e-9)
        assert p3.lambda_max_bound() >= eigs.max()


class TestMMatrixTheory:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_discrete_laplacian_is_m_matrix(self, n):
        """The paper's condition (2) discrete analogue holds."""
        A = laplacian_matrix_3d(n)
        assert is_z_matrix(A)
        assert is_diagonally_dominant(A)
        assert is_m_matrix(A)

    def test_non_z_matrix_detected(self):
        A = np.array([[2.0, 0.5], [-1.0, 2.0]])
        assert not is_z_matrix(A)
        assert not is_m_matrix(A)

    def test_singular_not_m_matrix(self):
        A = np.array([[1.0, -1.0], [-1.0, 1.0]])  # singular Z-matrix
        assert not is_m_matrix(A)

    def test_jacobi_spectral_radius_below_one(self):
        A = laplacian_matrix_3d(3)
        rho = jacobi_spectral_radius(A)
        assert 0 < rho < 1

    def test_jacobi_radius_exact_1d(self):
        """ρ(J) = cos(πh) for the 1-D Laplacian."""
        n = 10
        h = 1.0 / (n + 1)
        A = laplacian_matrix_1d(n)
        assert jacobi_spectral_radius(A) == pytest.approx(np.cos(np.pi * h))

    def test_contraction_factor_at_optimal_delta(self):
        A = laplacian_matrix_3d(3)
        eigs = np.linalg.eigvalsh(A)
        delta = 2.0 / (eigs.min() + eigs.max())
        rho = contraction_factor(A, delta)
        assert rho == pytest.approx(
            (eigs.max() - eigs.min()) / (eigs.max() + eigs.min()), rel=1e-9
        )
        assert rho < 1

    @given(st.floats(0.001, 0.999))
    @settings(max_examples=30, deadline=None)
    def test_contraction_below_two_over_lambda_max(self, frac):
        """F_δ contracts for every δ ∈ (0, 2/λmax)."""
        A = laplacian_matrix_3d(2)
        lam_max = float(np.linalg.eigvalsh(A).max())
        delta = frac * 2.0 / lam_max
        assert contraction_factor(A, delta) < 1.0

    def test_empty_1d_laplacian_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            laplacian_matrix_1d(0)

    def test_diagonal_dominance_weak_and_strict(self):
        weak_only = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert not is_diagonally_dominant(weak_only)
        assert is_diagonally_dominant(weak_only, strict_somewhere=False)
        assert not is_diagonally_dominant(np.array([[1.0, -2.0],
                                                    [-1.0, 3.0]]),
                                          strict_somewhere=False)

    def test_non_positive_diagonal_is_not_m_matrix(self):
        A = np.array([[0.0, -1.0], [-1.0, 2.0]])
        assert is_z_matrix(A)
        assert not is_m_matrix(A)

    def test_zero_diag_rejected(self):
        with pytest.raises(ValueError):
            jacobi_spectral_radius(np.zeros((2, 2)))


class TestProblemInstances:
    def test_membrane_has_nontrivial_obstacle(self):
        p = membrane_problem(8)
        assert p.constraint.lower is not None
        assert float(p.constraint.lower.max()) > 0  # pokes above rest

    def test_torsion_two_sided(self):
        p = torsion_problem(8)
        assert p.constraint.lower is not None
        assert p.constraint.upper is not None
        # |bound| = distance to boundary: zero-compatible near walls.
        assert float(p.constraint.upper.min()) >= 0

    def test_options_has_discount_term(self):
        p = options_pricing_problem(8, rate=0.3)
        assert p.c == pytest.approx(0.3)
        assert float(p.constraint.lower.max()) > 0  # exercise region exists

    def test_feasible_start_in_k(self):
        for maker in (membrane_problem, torsion_problem, options_pricing_problem):
            p = maker(6)
            assert p.constraint.contains(p.feasible_start())

    def test_invalid_c_rejected(self):
        import dataclasses

        p = membrane_problem(4)
        with pytest.raises(ValueError):
            dataclasses.replace(p, c=-1.0)

    def test_names(self):
        assert membrane_problem(8).name == "membrane-8"
        assert torsion_problem(8).name == "torsion-8"
        assert options_pricing_problem(8).name == "options-8"


PROBLEM_MAKERS = [membrane_problem, torsion_problem, options_pricing_problem]


@pytest.mark.parametrize("maker", PROBLEM_MAKERS,
                         ids=lambda m: m.__name__.split("_")[0])
class TestFixedPointMap:
    """F_δ(u) = P_K(u − δ(A·u − b)), the map whose fixed point is the
    solution and whose non-expansiveness the envelope invariant uses."""

    def test_map_lands_in_K(self, maker):
        p = maker(6)
        u = np.random.default_rng(0).uniform(-2.0, 2.0, p.grid.shape)
        assert p.constraint.contains(p.fixed_point_map(u, p.jacobi_delta()))

    def test_jacobi_map_is_sup_norm_nonexpansive(self, maker):
        p = maker(6)
        rng = np.random.default_rng(1)
        delta = p.jacobi_delta()
        for _ in range(5):
            u = rng.uniform(-1.0, 1.0, p.grid.shape)
            v = rng.uniform(-1.0, 1.0, p.grid.shape)
            moved = np.max(np.abs(p.fixed_point_map(u, delta)
                                  - p.fixed_point_map(v, delta)))
            assert moved <= np.max(np.abs(u - v)) * (1 + 1e-12)

    def test_solution_is_the_fixed_point_for_every_step(self, maker):
        p = maker(6)
        res = projected_richardson(p, tol=1e-12, max_relaxations=100_000)
        assert res.converged
        u = res.u
        for delta in (p.jacobi_delta(), p.optimal_delta()):
            np.testing.assert_allclose(p.fixed_point_map(u, delta), u,
                                       rtol=0, atol=1e-9)
        assert p.residual_norm(u) < 1e-9


def test_fixed_point_map_writes_into_out():
    p = membrane_problem(5)
    u = p.feasible_start()
    out = np.empty_like(u)
    result = p.fixed_point_map(u, p.jacobi_delta(), out=out)
    assert result is out
    np.testing.assert_array_equal(out, p.fixed_point_map(u, p.jacobi_delta()))
