"""Per-dtype numeric bounds for the dtype-parameterized solver stack.

The relaxation sweeps are memory-bandwidth-bound, so halving the element
width (float32 instead of float64) is a genuine throughput lever — but
every tolerance in the repo was written for float64.  This module is the
single place those bounds are derived from the dtype, so the equivalence
suites, the termination thresholds, and the validation at the
dtype boundaries all agree on what "equal" and "converged" mean at a
given precision.

Derivations
-----------
All bounds are expressed in ulps-at-unit-scale, ``eps = finfo(dtype).eps``
(the spacing of 1.0): the canonical problems keep ``|u| = O(1)``, so an
absolute bound of ``k·eps`` means "k last-place units".

``equivalence_tol``
    How far a fused/sharded sweep may drift from the plane-by-plane
    float64 reference after one relaxation.  The float64 contract is the
    historical repo-wide ``1e-12`` (≈ 4.5e3·eps₆₄ — a deliberately
    generous ceiling; observed differences are a few ulps).  The float32
    bound is derived, not copied: one sweep is ~10 rounding operations
    per point plus the cast of the float64 problem data, each
    contributing ≤ eps/2 at unit scale, so differences stay well under
    ~10·eps₃₂ ≈ 1.2e-6; ``100·eps₃₂ ≈ 1.2e-5`` carries the same ×10
    headroom the float64 ceiling does — the "~1e-5 family" for float32.

``min_termination_tol``
    The smallest convergence tolerance a dtype can *resolve*.  The
    termination criterion compares the max-norm diff of two consecutive
    iterates; computed in dtype, that diff carries a quantization error
    of about ``eps·|u|``.  A tolerance below a few ulps of the iterate
    scale would make STOP decisions depend on rounding noise — at
    float32 a request for ``tol=1e-7`` can neither be reached reliably
    nor distinguished from non-convergence.  The floor ``32·eps``
    (≈ 3.8e-6 at float32, ≈ 7.1e-15 at float64) keeps the threshold
    well above the ~1-ulp noise; solver entry points reject tolerances
    below it loudly rather than iterating forever.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = [
    "SUPPORTED_DTYPES",
    "ToleranceFloorError",
    "resolve_dtype",
    "check_dtype",
    "check_termination_tol",
    "equivalence_tol",
    "min_termination_tol",
]

DTypeLike = Union[str, type, np.dtype, None]

#: The dtypes the numeric stack is parameterized over.  Everything else
#: (float16, longdouble, complex, int) is rejected at every boundary:
#: the kernels' fused ``out=`` passes and the compiled sweeps are only
#: validated for these two.
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

#: ``resolve_dtype(None)`` — the historical behaviour of the whole repo.
DEFAULT_DTYPE = np.dtype(np.float64)


def resolve_dtype(dtype: DTypeLike) -> np.dtype:
    """Normalize a user-facing dtype spec to a supported ``np.dtype``.

    Accepts ``None`` (the float64 default), names (``"float32"``),
    numpy types (``np.float32``), and dtype instances; anything outside
    :data:`SUPPORTED_DTYPES` raises ``ValueError`` — a typo'd or exotic
    dtype must fail at construction, not silently reinterpret bytes
    three layers down in a kernel buffer.
    """
    if dtype is None:
        return DEFAULT_DTYPE
    try:
        resolved = np.dtype(dtype)
    except TypeError:
        raise ValueError(f"not a dtype: {dtype!r}") from None
    if resolved not in SUPPORTED_DTYPES:
        names = ", ".join(d.name for d in SUPPORTED_DTYPES)
        raise ValueError(
            f"unsupported dtype {resolved.name!r}; the numeric stack "
            f"supports {names}"
        )
    return resolved


def check_dtype(array: np.ndarray, expected: DTypeLike, name: str) -> None:
    """Loud mixed-dtype guard for plane/block hand-offs.

    Every boundary where an array crosses into dtype-parameterized
    machinery (kernel buffers, ghost-plane installs, warm starts)
    calls this instead of letting ``np.copyto``/ufunc casting silently
    round a float64 plane into a float32 slot (or promote a sweep to
    float64 and throw the bandwidth win away).
    """
    expected = np.dtype(expected)
    if array.dtype != expected:
        raise ValueError(
            f"{name} has dtype {array.dtype.name}, expected {expected.name} "
            "— mixed-dtype planes are rejected rather than silently cast"
        )


def equivalence_tol(dtype: DTypeLike) -> float:
    """Max allowed |fused − reference| after one sweep (see module doc)."""
    resolved = resolve_dtype(dtype)
    if resolved == np.dtype(np.float64):
        return 1e-12  # the historical repo-wide contract, unchanged
    return float(100 * np.finfo(resolved).eps)  # ≈ 1.19e-5 for float32


def min_termination_tol(dtype: DTypeLike) -> float:
    """Smallest convergence tolerance resolvable in ``dtype`` diffs."""
    return float(32 * np.finfo(resolve_dtype(dtype)).eps)


class ToleranceFloorError(ValueError):
    """A termination tolerance below what its dtype can resolve.

    The one structured error for the sub-floor-tolerance condition,
    raised at every entry boundary — solver construction, CLI job
    validation, service schema decode — so each front end can turn the
    same condition into its own shape (message + exit code, HTTP 400
    with ``field``) instead of a stack trace.  A ``ValueError``
    subclass: historical ``except ValueError`` call sites keep working.
    """

    #: The wire/CLI field the condition belongs to, for structured
    #: error bodies.
    field = "tolerance"

    def __init__(self, tol: float, dtype: DTypeLike, floor: float):
        self.tol = float(tol)
        self.dtype = resolve_dtype(dtype).name
        self.floor = float(floor)
        super().__init__(
            f"tol={self.tol:g} is below the {self.dtype} "
            f"termination floor {self.floor:g} "
            "(see repro.numerics.tolerances)"
        )


def check_termination_tol(tol: float, dtype: DTypeLike) -> float:
    """Validate that ``tol`` is resolvable in ``dtype``; returns it.

    Raises :class:`ToleranceFloorError` below
    :func:`min_termination_tol` — the single validation every boundary
    (solver, CLI, service schema, ladder planning) shares, so the floor
    is enforced identically everywhere.
    """
    resolved = resolve_dtype(dtype)
    floor = min_termination_tol(resolved)
    tol = float(tol)
    if tol < floor:
        raise ToleranceFloorError(tol, resolved, floor)
    return tol
