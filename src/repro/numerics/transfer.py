"""Grid transfer operators for the mixed-precision multigrid ladder.

The campaign ladder solves a coarse instance of the obstacle problem
first and uses its (cheap) solution as the warm start of the fine
instance: coarse-n float32 solve → trilinear prolongation onto the fine
grid → float32 fine sweeps → float64 polish.  This module is the
transfer piece — resampling a field between two :class:`~.grid.Grid3D`
discretizations of the unit cube.

Both grids place their interior points at ``(i+1)·h`` with
``h = 1/(n+1)`` (zero Dirichlet boundary at 0 and 1), so no nesting
relation between the sizes is required: :func:`prolong` evaluates the
separable trilinear interpolant of the coarse field at the fine
interior points, and :func:`restrict` is the same sampling in the
other direction (a diagnostic, not part of the solve path).

Boundary handling is explicit.  The default (``boundary=0.0``) extends
the source field with the zero Dirichlet planes the obstacle problem
actually has — the interpolant then *is* a function vanishing on ∂Ω,
which is what makes the prolonged iterate an admissible warm start.
``boundary="extrapolate"`` extends linearly instead, making the
operator exact on arbitrary trilinear fields all the way to the walls
(the property the test suite pins down; with zero padding, exactness
holds at every fine point inside the coarse hull ``[h_c, 1−h_c]³``).

All interpolation arithmetic runs in float64 regardless of the input
dtype, then casts once at the end — the operator is deterministic
(bit-reproducible whatever the dtype of the surrounding solve), which
the ladder's cache keying relies on.

:data:`TRANSFER_VERSION` names the operator's semantics; the campaign
engine folds it into the cache signature of every ladder-dependent job,
so changing the interpolation here can never serve a stale warm-started
result from an old cache directory.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .tolerances import resolve_dtype

__all__ = [
    "TRANSFER_VERSION",
    "prolong",
    "restrict",
    "prolong_iterate",
]

#: Version of the transfer operator's semantics.  Bump on any change to
#: the interpolation scheme or boundary handling: the campaign engine
#: keys ladder results on it, so old cache entries miss instead of
#: seeding solves with a differently-interpolated iterate.
TRANSFER_VERSION = 1

BoundaryRule = Union[float, str]


def _check_cube(u: np.ndarray, name: str) -> int:
    if u.ndim != 3 or len(set(u.shape)) != 1:
        raise ValueError(
            f"{name} must be a cubic (n, n, n) field, got shape {u.shape}"
        )
    return u.shape[0]


def _axis_interp(n_src: int, n_dst: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis interpolation stencil: destination interior point j sits
    between extended-source slots ``i0[j]`` and ``i0[j]+1`` with weight
    ``w[j]`` on the upper one.

    Extended-source coordinates are ``i·h_src`` for ``i = 0..n_src+1``
    (boundary slots included), so ``t = x/h_src`` is the fractional slot
    index of destination coordinate x.
    """
    h_src = 1.0 / (n_src + 1)
    h_dst = 1.0 / (n_dst + 1)
    x = (np.arange(n_dst) + 1) * h_dst
    t = x / h_src
    i0 = np.floor(t).astype(np.intp)
    # x < 1 ⇒ t < n_src+1, but guard the floor against rounding at the
    # last point so i0+1 never indexes past the upper boundary slot.
    np.clip(i0, 0, n_src, out=i0)
    w = t - i0
    return i0, w


def _extrapolate_axis(ext: np.ndarray, axis: int) -> None:
    """Fill the two boundary slots along ``axis`` by linear
    extrapolation from the adjacent interior slots."""
    index = [slice(None)] * 3

    def at(i: int) -> tuple:
        sel = list(index)
        sel[axis] = i
        return tuple(sel)

    ext[at(0)] = 2.0 * ext[at(1)] - ext[at(2)]
    ext[at(-1)] = 2.0 * ext[at(-2)] - ext[at(-3)]


def _resample(u: np.ndarray, n_dst: int, boundary: BoundaryRule) -> np.ndarray:
    """Trilinear resampling of cubic field ``u`` onto the ``n_dst`` grid
    (float64 arithmetic; see the module docstring for ``boundary``)."""
    n_src = u.shape[0]
    ext = np.zeros((n_src + 2,) * 3, dtype=np.float64)
    ext[1:-1, 1:-1, 1:-1] = u
    if boundary == "extrapolate":
        if n_src < 2:
            raise ValueError(
                "boundary='extrapolate' needs at least 2 interior points "
                f"per axis, got {n_src}"
            )
        # Axis by axis: after the first pass the face planes are filled,
        # so the later passes extrapolate edges and corners consistently
        # (the composition is exact for trilinear fields).
        for axis in (0, 1, 2):
            _extrapolate_axis(ext, axis)
    elif boundary != 0.0:
        raise ValueError(
            f"boundary must be 0.0 (zero Dirichlet) or 'extrapolate', "
            f"got {boundary!r}"
        )
    out = ext
    for axis in (0, 1, 2):
        out = np.moveaxis(out, axis, 0)
        i0, w = _axis_interp(n_src, n_dst)
        shape_w = (n_dst,) + (1,) * (out.ndim - 1)
        w = w.reshape(shape_w)
        out = out[i0] * (1.0 - w) + out[i0 + 1] * w
        out = np.moveaxis(out, 0, axis)
    return out


def prolong(
    u_coarse: np.ndarray,
    n_fine: int,
    *,
    boundary: BoundaryRule = 0.0,
    dtype=None,
) -> np.ndarray:
    """Trilinear prolongation of a coarse cubic field onto the
    ``n_fine`` grid.

    ``dtype=None`` keeps the input's dtype (which must be one of the
    supported solve dtypes); arithmetic is always float64 internally.
    Exact on trilinear fields (everywhere with
    ``boundary="extrapolate"``; inside the coarse hull with the zero
    Dirichlet default), and exact — bit-for-bit — at fine points that
    coincide with coarse points.
    """
    u = np.asarray(u_coarse)
    n_coarse = _check_cube(u, "u_coarse")
    if n_fine < 1:
        raise ValueError(f"n_fine must be >= 1, got {n_fine}")
    out_dtype = resolve_dtype(u.dtype if dtype is None else dtype)
    out = _resample(u.astype(np.float64, copy=False), n_fine, boundary)
    return np.ascontiguousarray(out, dtype=out_dtype)


def restrict(
    u_fine: np.ndarray,
    n_coarse: int,
    *,
    boundary: BoundaryRule = 0.0,
    dtype=None,
) -> np.ndarray:
    """Trilinear restriction (sampling) of a fine cubic field at the
    ``n_coarse`` grid points — the diagnostic inverse of
    :func:`prolong`: ``restrict(prolong(u, m), n)`` reproduces ``u``
    for trilinear fields."""
    u = np.asarray(u_fine)
    _check_cube(u, "u_fine")
    if n_coarse < 1:
        raise ValueError(f"n_coarse must be >= 1, got {n_coarse}")
    out_dtype = resolve_dtype(u.dtype if dtype is None else dtype)
    out = _resample(u.astype(np.float64, copy=False), n_coarse, boundary)
    return np.ascontiguousarray(out, dtype=out_dtype)


def prolong_iterate(u_coarse: np.ndarray, problem, dtype) -> np.ndarray:
    """A coarse iterate as a feasible warm start for ``problem``.

    Prolongs with the zero-Dirichlet boundary (the obstacle problem's
    actual boundary condition), casts to the solve ``dtype``, and
    projects onto the problem's constraint set *in that dtype* — the
    projection bounds are cast the same way the dtype-parameterized
    solver casts its problem data, so the seed is exactly feasible for
    the sweeps that will consume it (a float64-projected value can
    round back across the obstacle when narrowed to float32).
    """
    out_dtype = resolve_dtype(dtype)
    out = prolong(np.asarray(u_coarse), problem.grid.n, boundary=0.0,
                  dtype=out_dtype)
    constraint = problem.constraint
    if not constraint.is_trivial:
        lower: Optional[np.ndarray] = None
        upper: Optional[np.ndarray] = None
        if constraint.lower is not None:
            lower = np.asarray(constraint.lower, dtype=out_dtype)
        if constraint.upper is not None:
            upper = np.asarray(constraint.upper, dtype=out_dtype)
        np.clip(out, lower, upper, out=out)
    return out
