"""M-matrix machinery backing the convergence theory (a dense test oracle).

The paper's condition (2) requires the block operator A to dominate an
M-matrix N = (n_ij): ⟨A_i·v, v_i⟩ ≥ Σ_j n_ij |v_i| |v_j|.  For the
discrete Laplacian-plus-diagonal operators built here that condition
holds because the matrix itself is an M-matrix (Z-matrix + nonsingular +
inverse-positive); asynchronous projected Richardson then converges
(El Baz [13], Miellou & Spitéri [15], [17]).

This module gives explicit small-size dense constructions and checks so
that the property-based tests can exercise the theory directly:

- :func:`laplacian_matrix_1d` / :func:`laplacian_matrix_3d` — the dense
  operator for small n;
- :func:`is_z_matrix`, :func:`is_diagonally_dominant`,
  :func:`is_m_matrix` — structural checks;
- :func:`jacobi_spectral_radius` — ρ(I − D⁻¹A), the asymptotic rate of
  the paper's relaxations;
- :func:`contraction_factor` — ‖I − δA‖ bound for the Richardson map.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "laplacian_matrix_1d",
    "laplacian_matrix_3d",
    "is_z_matrix",
    "is_diagonally_dominant",
    "is_m_matrix",
    "jacobi_spectral_radius",
    "contraction_factor",
]


def laplacian_matrix_1d(n: int, h: float | None = None) -> np.ndarray:
    """Dense 1-D Dirichlet Laplacian (tridiagonal [−1, 2, −1]/h²)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if h is None:
        h = 1.0 / (n + 1)
    A = np.zeros((n, n))
    np.fill_diagonal(A, 2.0)
    idx = np.arange(n - 1)
    A[idx, idx + 1] = -1.0
    A[idx + 1, idx] = -1.0
    return A / (h * h)


def laplacian_matrix_3d(n: int, c: float = 0.0) -> np.ndarray:
    """Dense 3-D Dirichlet Laplacian (+ c·I) via Kronecker sums.

    Size n³×n³ — for validation on small n only; the solvers never
    materialize this.
    """
    h = 1.0 / (n + 1)
    L = laplacian_matrix_1d(n, h)
    eye = np.eye(n)
    A = (
        np.kron(np.kron(L, eye), eye)
        + np.kron(np.kron(eye, L), eye)
        + np.kron(np.kron(eye, eye), L)
    )
    return A + c * np.eye(n**3)


def is_z_matrix(A: np.ndarray, atol: float = 1e-12) -> bool:
    """Off-diagonal entries all ≤ 0."""
    off = A - np.diag(np.diag(A))
    return bool(np.all(off <= atol))


def is_diagonally_dominant(A: np.ndarray, strict_somewhere: bool = True) -> bool:
    """Weak diagonal dominance, strict in at least one row if requested."""
    diag = np.abs(np.diag(A))
    off = np.sum(np.abs(A), axis=1) - diag
    weak = np.all(diag >= off - 1e-12)
    if not weak:
        return False
    if strict_somewhere:
        return bool(np.any(diag > off + 1e-12))
    return True


def is_m_matrix(A: np.ndarray) -> bool:
    """Z-matrix with positive diagonal and nonnegative inverse.

    The inverse-positivity check is the defining property; it is O(n³)
    dense, so only small validation sizes should call this.
    """
    if not is_z_matrix(A):
        return False
    if np.any(np.diag(A) <= 0):
        return False
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(inv >= -1e-9))


def jacobi_spectral_radius(A: np.ndarray) -> float:
    """ρ(I − D⁻¹A) — the point-Jacobi convergence rate."""
    D = np.diag(A)
    if np.any(D == 0):
        raise ValueError("zero diagonal entry")
    J = np.eye(A.shape[0]) - A / D[:, None]
    return float(np.max(np.abs(np.linalg.eigvals(J))))


def contraction_factor(A: np.ndarray, delta: float) -> float:
    """‖I − δA‖₂ for symmetric A = max |1 − δλ| over the spectrum.

    The projected Richardson map F_δ is a contraction with (at most)
    this factor because P_K is non-expansive.
    """
    eigs = np.linalg.eigvalsh((A + A.T) / 2.0)
    return float(np.max(np.abs(1.0 - delta * eigs)))
