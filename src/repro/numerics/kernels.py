"""Fused, cache-blocked relaxation kernels for the projected Richardson sweep.

The reference implementation (:func:`repro.numerics.richardson.relax_plane`)
relaxes one z-plane at a time with per-plane temporaries.  That shape is
convenient for the theory tests but leaves a lot of throughput on the
table: every plane pays ~10 NumPy dispatches plus two fresh allocations,
and the whole-grid passes of a naive vectorization stream every
intermediate through DRAM.  The kernels here fuse the relaxation

    u_z ← P_{K_z}(u_z − δ((A·u)_z − b_z))

into a handful of ``out=``-rewritten ufunc passes over *slabs* of a few
planes, sized so the slab scratch stays cache-resident:

``jacobi_sweep``
    the whole-grid Jacobi map u^{p+1} = F_δ(u^p), one fused stencil
    expression + projection + in-place max-diff, no per-plane Python
    loop;

``gauss_seidel_sweep``
    the paper's in-node plane-sequential order.  Everything that does
    not depend on already-updated planes (the in-plane and above
    neighbour contributions) is precomputed vectorized into a staging
    array; the sequential part is then three dispatches per plane;

``block_sweep``
    the distributed solver's variant: either order on a block of planes
    ``[lo, hi)`` with ghost planes standing in for the neighbours'
    boundary sub-blocks (possibly delayed iterates, eq. (5));
    ``begin_block_sweep`` / ``finish_block_sweep`` are its two halves,
    between which a compiled sweep runs on a worker thread.

All three share the same slab internals, so the sequential whole-grid
sweeps and a single full-domain block produce bit-identical iterates —
the cross-checks in the test-suite rely on that.

Two backends, one result
------------------------
The sweeps run in one of two backends, chosen per workspace when it is
baked:

- **compiled** (``_sweep.c``, built and loaded by :mod:`._ckernels` on
  first use): one C job per block sweep, used whenever the library
  loads.  It runs on the library's worker pool: started at dispatch, it
  relaxes on worker threads without the interpreter lock until the
  caller joins it (a plain ``block_sweep`` joins at once).  A large
  enough block is split into row bands, and the joining thread runs
  those no worker has taken yet before it waits for the rest;
- **numpy** (``_jacobi_numpy`` / ``_gauss_seidel_numpy`` below): the
  fallback when it does not (one ``RuntimeWarning`` names the reason),
  run synchronously at dispatch,
  for arguments the compiled path will not take (not an aligned,
  C-contiguous ndarray of the workspace shape and dtype, ghosts not
  ``(n, n)``, or ``nxt`` overlapping an input), and the tests' bitwise
  oracle.

The contract between them is per element: the compiled kernel performs
exactly the floating-point operations these numpy passes perform on
each element, in the same order — the in-plane sum including the
flattened-row contamination added at the x-edges and subtracted again,
the ``0.0`` seed of a ghost-less top plane (Gauss–Seidel), Jacobi's
``below + above`` with a missing plane counting as ``0.0``, ``(below·d)
+ ((nb·d) [+ cur·a] [+ δb])`` for Gauss–Seidel and ``(cur·a) + (nb·d)
[+ δb]`` for Jacobi, then ``np.maximum``/``np.minimum`` with their NaN
propagation and a ``+0.0``/``-0.0`` tie resolved to the bound (the
loader checks this numpy does the same, else the numpy kernels run),
coefficients promoted as numpy promotes them (asked of numpy when the
workspace is baked), and a zero diff returned as ``+0.0`` — so
iterates, diffs, relaxation counts and simulated times are bit-identical
whichever backend ran, and neither depends on the slab size, on the
bands a compiled sweep was split into or on the threads that ran them.
``repro_kernel_sweeps_total``, ``repro_kernel_bands_total`` and
``repro_kernel_sweep_seconds`` carry a ``backend`` label (``"c"`` or
``"numpy"``) saying which one did; a numpy sweep is one band, and a
compiled sweep's seconds are its bands' run times, summed over the
threads that ran them (one observation per sweep).
``repro_kernel_join_wait_seconds`` holds what the caller spent in each
join of a compiled sweep, running its own queued bands or blocked on
the others (the rest of the sweep overlapped its other work).  The
library counts compiled sweeps as it joins them, and the telemetry
registry collects those counts before each snapshot; a handle's own
``value`` lags until then.

The compiled library holds its sweeps twice, for the baseline
instruction set and for AVX2, and the loader binds the one this CPU
runs.  The per-element contract above holds for both bodies alike:
AVX2 only widens the vectors, without fused multiply-adds, so the bits
do not depend on which body ran either.  An ``isa`` label next to
``backend`` names it (``"avx2"`` or ``"baseline"``; ``"none"`` on numpy
sweeps).

Workspace / aliasing contract
-----------------------------
A :class:`SweepWorkspace` owns every scratch buffer a sweep needs and is
built once per (problem, delta, plane-range).  The kernels allocate
nothing.  Rules callers must follow:

- ``cur`` and ``nxt`` are distinct C-contiguous ``(hi−lo, n, n)``
  arrays; the kernels read ``cur``, fully overwrite ``nxt``, and never
  touch ``cur``.  Callers implement buffer rotation by swapping the two
  references after each sweep (no plane copies anywhere).
- Ghost planes must not alias ``nxt``; they are read-only inputs.
- A workspace holds at most one sweep in flight (beginning a second
  raises), so it must not be shared by two threads sweeping at once,
  nor reused after ``delta`` changes — build a new one, the affine
  coefficients are baked in.
- Between ``begin_block_sweep`` and ``finish_block_sweep`` a worker
  may be reading ``cur``, the ghosts and the workspace's fields and
  writing ``nxt``: the caller must not write any of them, nor read
  ``nxt``, until it has finished the sweep.

Two exact-arithmetic fast paths matter in practice: with the paper's
δ = 1/diag the coefficient on the central value, 1 − δ·(6+c·h²)/h²,
evaluates to exactly 0.0, and for the canonical problems b is constant
(often 0), so the kernels skip whole passes without changing a single
bit of the result.

Precision (dtype)
-----------------
A workspace is parameterized by ``dtype`` — ``float64`` (the default,
bit-identical to the historical behaviour) or ``float32``, which halves
the memory traffic of every bandwidth-bound sweep.  The dtype is a
property of the *buffers*: every plane array a kernel touches (``cur``,
``nxt``, ghosts, the slab scratch, the staged constraint/rhs fields)
must carry the workspace dtype, and the kernels validate that instead
of letting ufunc casting silently promote a sweep back to float64 (or
round a float64 ghost into a float32 slot).  The affine coefficients
stay Python floats: under NumPy's weak-scalar promotion they compute in
the buffer dtype without widening it.  Per-dtype equivalence bounds
live in :mod:`repro.numerics.tolerances`.
"""

from __future__ import annotations

import ctypes
import time
from typing import Optional

import numpy as np

from ..resources import resolve_context
from ..telemetry import SECONDS_BUCKETS, metric_key
from . import _ckernels
from .obstacle import ObstacleProblem
from .tolerances import check_dtype, resolve_dtype

__all__ = [
    "SweepWorkspace",
    "jacobi_sweep",
    "gauss_seidel_sweep",
    "block_sweep",
    "begin_block_sweep",
    "finish_block_sweep",
]

#: Target size (bytes) of the numpy kernels' per-slab working set;
#: slabs are sized so roughly three slab-arrays fit in L2 together.  The
#: compiled sweeps walk plane by plane and never read it.
_SLAB_TARGET_BYTES = 1 << 20


class _KernelProbe:
    """Pre-resolved telemetry handles for the sweep hot path.

    Built once per workspace (when the owning context's telemetry is
    enabled) so a numpy sweep pays two perf-counter reads plus two
    counter and one histogram updates — no name/label resolution per
    call.  Compiled sweeps are counted by the library itself, in the
    :class:`_ckernels.Stats` of ``stats`` (by order), as it joins them;
    the registry merges those in before every snapshot
    (:class:`_CompiledCounts`), so counting one costs the interpreter
    nothing.  The overhead of this default-on path is gated at ≤3% by
    the ``telemetry_overhead`` section of ``BENCH_micro.json``.
    """

    __slots__ = ("sweeps", "bands", "seconds", "join_wait", "stats")

    def __init__(self, telemetry, lib):
        # Compiled sweeps are labelled with the instruction set of the
        # body the loaded library runs, numpy sweeps with isa="none".
        labels = {"numpy": "none"}
        if lib is not None:
            labels["c"] = lib.isa
        keys = [(order, backend) for order in ("jacobi", "gauss_seidel")
                for backend in labels]
        self.sweeps = {
            (order, backend): telemetry.counter(
                "repro_kernel_sweeps_total", order=order, backend=backend,
                isa=labels[backend])
            for order, backend in keys}
        self.bands = {
            (order, backend): telemetry.counter(
                "repro_kernel_bands_total", order=order, backend=backend,
                isa=labels[backend])
            for order, backend in keys}
        self.seconds = {
            (order, backend): telemetry.histogram(
                "repro_kernel_sweep_seconds", order=order, backend=backend,
                isa=labels[backend])
            for order, backend in keys}
        self.join_wait = telemetry.histogram("repro_kernel_join_wait_seconds")
        self.stats = {
            order: telemetry.collector(
                ("repro_kernel", order, lib.isa),
                lambda order=order: _CompiledCounts(lib, order)).stats
            for order, backend in keys if backend == "c"}

    def sweep_done(self, order, backend, elapsed):
        """A numpy sweep: one band."""
        self.sweeps[order, backend].inc()
        self.bands[order, backend].inc()
        self.seconds[order, backend].observe(elapsed)


class _CompiledCounts:
    """A registry's collector of the compiled sweeps of one order on the
    loaded body: the library counts them in ``stats`` as it joins them,
    and :meth:`collect` hands what it counted to the registry."""

    def __init__(self, lib, order):
        self.stats = _ckernels.Stats(nbounds=len(SECONDS_BUCKETS))
        self.stats.bounds[:len(SECONDS_BUCKETS)] = SECONDS_BUCKETS
        self._drain = lib.repro_stats_drain
        labels = {"order": order, "backend": "c", "isa": lib.isa}
        self._keys = [metric_key(name, labels) for name in (
            "repro_kernel_sweeps_total", "repro_kernel_bands_total",
            "repro_kernel_sweep_seconds")]

    def collect(self):
        got = _ckernels.Stats()
        self._drain(ctypes.addressof(self.stats), ctypes.addressof(got))
        sweeps, bands, seconds = self._keys
        cells = len(SECONDS_BUCKETS) + 1
        return {
            "counters": {sweeps: float(got.sweeps), bands: float(got.bands)},
            "histograms": {
                seconds: {"buckets": SECONDS_BUCKETS, "sum": got.seconds,
                          "counts": got.seconds_counts[:cells],
                          "count": got.sweeps},
                "repro_kernel_join_wait_seconds": {
                    "buckets": SECONDS_BUCKETS, "sum": got.wait,
                    "counts": got.wait_counts[:cells], "count": got.joins}}}


def _default_slab(n: int, n_planes: int, itemsize: int = 8,
                  target: int = _SLAB_TARGET_BYTES) -> int:
    """Planes per slab: the whole block when it is small enough to stay
    cache-resident, otherwise a few planes.  ``itemsize`` is the buffer
    dtype's width — float32 fits twice the planes per slab."""
    plane_bytes = itemsize * n * n
    if n_planes * plane_bytes * 3 <= 2 * target:
        return n_planes
    return max(2, target // (3 * plane_bytes) or 2)


class SweepWorkspace:
    """Preallocated buffers + baked constants for fused sweeps of planes
    ``[lo, hi)`` of ``problem`` at relaxation step ``delta``.

    Exposes (read-only from the kernels' point of view):

    - ``a``: coefficient on the central value, ``1 − δ(6 + c·h²)/h²``
      (exactly 0.0 for the default δ = 1/diag);
    - ``d``: neighbour coefficient δ/h²;
    - ``db``: the δ·b term — ``None`` when b ≡ 0, a float when b is
      constant, else a ``(hi−lo, n, n)`` array;
    - ``lower``/``upper``: the constraint slab (``None``, 0-d scalar
      array, or ``(hi−lo, n, n)`` field view), plus cached per-plane
      views for the plane-sequential kernel;
    - ``dtype``: the buffer dtype all kernel arrays must carry
      (float64 by default; the problem's float64 fields are cast into
      workspace-owned copies once, here, when it differs).
    """

    def __init__(self, problem: ObstacleProblem, delta: float,
                 lo: int = 0, hi: Optional[int] = None,
                 slab: Optional[int] = None,
                 dtype=None, resources=None):
        n = problem.grid.n
        hi = n if hi is None else hi
        if not 0 <= lo < hi <= n:
            raise ValueError(f"invalid plane range [{lo}, {hi}) for n={n}")
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.dtype = resolve_dtype(dtype)
        self.lo = lo
        self.hi = hi
        self.n = n
        m = hi - lo
        self.n_planes = m
        tele = resolve_context(resources).telemetry
        self._tele = _KernelProbe(tele, _ckernels.load()) \
            if tele.enabled else None
        self.slab = slab if slab is not None else \
            _default_slab(n, m, self.dtype.itemsize)
        if self.slab < 1:
            raise ValueError("slab must be >= 1")
        self.problem = problem
        self.delta = delta
        h2 = problem.grid.h ** 2
        self.d = delta / h2
        self.a = 1.0 - delta * (6.0 + problem.c * h2) / h2

        b_slab = problem.b[lo:hi]
        if not b_slab.any():
            self.db: object = None
        elif np.all(b_slab == b_slab.flat[0]):
            self.db = float(delta * b_slab.flat[0])
        else:
            self.db = self._as_dtype(delta * b_slab)

        self.lower = self._constraint_slab(problem.constraint.lower)
        self.upper = self._constraint_slab(problem.constraint.upper)
        self._lower_planes = self._plane_views(self.lower)
        self._upper_planes = self._plane_views(self.upper)
        # The compiled argument block points into db/lower/upper, so it
        # is built after them; None selects the numpy kernels.
        self._compiled = _ckernels.bake(
            self, {} if self._tele is None else self._tele.stats)

        # Scratch of the numpy kernels, allocated on their first use (so
        # never on the compiled path): the slab buffer (neighbour sums,
        # then new − old) and the GS staging array, a full block-sized
        # buffer only the plane-sequential kernel touches.
        self._nb: Optional[np.ndarray] = None
        self._stage: Optional[np.ndarray] = None
        # The sweep in flight: (order, diff, None) of a numpy sweep,
        # already run, or (order, None, arrays) of a started compiled one.
        self._inflight: Optional[tuple] = None

    def _as_dtype(self, field: np.ndarray) -> np.ndarray:
        """The field itself at float64 (no copy — bit-identical default
        path), a workspace-owned cast copy otherwise."""
        if field.dtype == self.dtype:
            return field
        return field.astype(self.dtype)

    def _constraint_slab(self, field: Optional[np.ndarray]):
        if field is None:
            return None
        if field.ndim == 0:
            return self._as_dtype(field)
        return self._as_dtype(field[self.lo:self.hi])

    def _plane_views(self, slab):
        if slab is None:
            return [None] * self.n_planes
        if slab.ndim == 0:
            return [slab] * self.n_planes
        return list(slab)

    def rotation_buffer(self) -> np.ndarray:
        """A fresh ``(hi−lo, n, n)`` array (in the workspace dtype)
        callers can rotate against the iterate (allocated once per
        call — grab it at setup time)."""
        return np.empty((self.n_planes, self.n, self.n), dtype=self.dtype)

    def _slab_scratch(self) -> np.ndarray:
        """The numpy kernels' ``(slab, n, n)`` scratch buffer."""
        if self._nb is None:
            self._nb = np.empty((min(self.slab, self.n_planes), self.n,
                                 self.n), dtype=self.dtype)
        return self._nb


def _check_buffers(ws: SweepWorkspace, cur: np.ndarray, nxt: np.ndarray,
                   ghost_below: Optional[np.ndarray],
                   ghost_above: Optional[np.ndarray]) -> None:
    shape = (ws.n_planes, ws.n, ws.n)
    if cur.shape != shape or nxt.shape != shape:
        raise ValueError(f"cur/nxt must have shape {shape}")
    if cur is nxt:
        raise ValueError("cur and nxt must be distinct arrays")
    if not (cur.flags.c_contiguous and nxt.flags.c_contiguous):
        raise ValueError("cur and nxt must be C-contiguous")
    check_dtype(cur, ws.dtype, "cur")
    check_dtype(nxt, ws.dtype, "nxt")
    if ghost_below is not None:
        check_dtype(ghost_below, ws.dtype, "ghost_below")
    if ghost_above is not None:
        check_dtype(ghost_above, ws.dtype, "ghost_above")


def _inplane_sum(nbs: np.ndarray, curs: np.ndarray, n: int) -> None:
    """Add the 4 in-plane neighbours of ``curs`` into ``nbs`` (slab-wise).

    The x-direction uses shifted *flattened* views — contiguous adds are
    ~2× faster than inner-strided ones — which contaminates the first and
    last column of every row with the neighbouring row's edge value; two
    cheap strided passes subtract the contamination back out.
    """
    m = nbs.shape[0]
    np.add(nbs[:, 1:, :], curs[:, :-1, :], out=nbs[:, 1:, :])
    np.add(nbs[:, :-1, :], curs[:, 1:, :], out=nbs[:, :-1, :])
    flat_nb = nbs.reshape(m, n * n)
    flat_cur = curs.reshape(m, n * n)
    np.add(flat_nb[:, 1:], flat_cur[:, :-1], out=flat_nb[:, 1:])
    np.add(flat_nb[:, :-1], flat_cur[:, 1:], out=flat_nb[:, :-1])
    if n > 1:
        np.subtract(nbs[:, 1:, 0], curs[:, :-1, n - 1], out=nbs[:, 1:, 0])
        np.subtract(nbs[:, :-1, n - 1], curs[:, 1:, 0], out=nbs[:, :-1, n - 1])


def _z_pair(out: np.ndarray, below: Optional[np.ndarray],
            above: Optional[np.ndarray]) -> None:
    """``out = below + above``, a missing (None) plane counting as 0.0."""
    if below is not None and above is not None:
        np.add(below, above, out=out)
    elif below is not None or above is not None:
        np.add(below if above is None else above, 0.0, out=out)
    else:
        out.fill(0.0)


def jacobi_sweep(ws: SweepWorkspace, cur: np.ndarray, nxt: np.ndarray,
                 ghost_below: Optional[np.ndarray] = None,
                 ghost_above: Optional[np.ndarray] = None) -> float:
    """One fused Jacobi relaxation of all planes: ``nxt = F_δ(cur)``.

    Returns ‖nxt − cur‖∞ (NaN when any update is NaN).
    ``ghost_below``/``ghost_above`` substitute for the planes just
    outside ``[lo, hi)`` (``None`` = zero Dirichlet).
    """
    return block_sweep(ws, cur, nxt, ghost_below, ghost_above, "jacobi")


def _numpy_sweep(ws, order, cur, nxt, ghost_below, ghost_above):
    """An ``order`` sweep by the numpy kernel, here and now."""
    probe = ws._tele
    t_start = time.perf_counter() if probe is not None else 0.0
    diff = _NUMPY_KERNELS[order](ws, cur, nxt, ghost_below, ghost_above)
    if probe is not None:
        probe.sweep_done(order, "numpy", time.perf_counter() - t_start)
    return diff


def _jacobi_numpy(ws: SweepWorkspace, cur: np.ndarray, nxt: np.ndarray,
                  ghost_below: Optional[np.ndarray],
                  ghost_above: Optional[np.ndarray]) -> float:
    """The numpy Jacobi kernel: fallback and bitwise oracle."""
    _check_buffers(ws, cur, nxt, ghost_below, ghost_above)
    m_total = ws.n_planes
    n = ws.n
    d = ws.d
    a = ws.a
    db = ws.db
    lower, upper = ws.lower, ws.upper
    slab = ws.slab
    scratch = ws._slab_scratch()
    diff = 0.0
    for s in range(0, m_total, slab):
        e = min(s + slab, m_total)
        m = e - s
        nbs = scratch[:m]
        curs = cur[s:e]
        nxts = nxt[s:e]
        # z-neighbours: below + above for every plane, whatever slab it
        # falls in; the block's first and last planes take the ghosts,
        # a missing one counting as 0.0 (zero Dirichlet).
        zs, ze = max(s, 1), min(e, m_total - 1)
        if zs < ze:
            np.add(cur[zs - 1:ze - 1], cur[zs + 1:ze + 1],
                   out=nbs[zs - s:ze - s])
        if s == 0:
            _z_pair(nbs[0], ghost_below,
                    cur[1] if m_total > 1 else ghost_above)
        if e == m_total and m_total > 1:
            _z_pair(nbs[-1], cur[m_total - 2], ghost_above)
        _inplane_sum(nbs, curs, n)
        # nxt = a·cur + d·nb (+ δb), projected.
        if a == 0.0:
            np.multiply(nbs, d, out=nxts)
        else:
            np.multiply(nbs, d, out=nbs)
            np.multiply(curs, a, out=nxts)
            np.add(nxts, nbs, out=nxts)
        if db is not None:
            np.add(nxts, db if isinstance(db, float) else db[s:e], out=nxts)
        if lower is not None:
            np.maximum(nxts, lower if lower.ndim == 0 else lower[s:e], out=nxts)
        if upper is not None:
            np.minimum(nxts, upper if upper.ndim == 0 else upper[s:e], out=nxts)
        # Fused max-diff while the slab is hot.  A NaN maximum (numpy
        # reductions propagate it) must stick: NaN > diff is False.
        np.subtract(nxts, curs, out=nbs)
        hi_d = float(nbs.max())
        lo_d = float(nbs.min())
        if hi_d > diff or hi_d != hi_d:
            diff = hi_d
        if -lo_d > diff:
            diff = -lo_d
    return diff


def gauss_seidel_sweep(ws: SweepWorkspace, cur: np.ndarray, nxt: np.ndarray,
                       ghost_below: Optional[np.ndarray] = None,
                       ghost_above: Optional[np.ndarray] = None) -> float:
    """One plane-sequential (Gauss–Seidel) relaxation: plane z sees the
    already-updated plane z−1, the paper's in-node order.

    Returns ‖nxt − cur‖∞ (NaN when any update is NaN).
    """
    return block_sweep(ws, cur, nxt, ghost_below, ghost_above)


def _gauss_seidel_numpy(ws: SweepWorkspace, cur: np.ndarray, nxt: np.ndarray,
                        ghost_below: Optional[np.ndarray],
                        ghost_above: Optional[np.ndarray]) -> float:
    """The numpy Gauss–Seidel kernel: fallback and bitwise oracle.

    Stage 1 precomputes, slab-vectorized, every contribution independent
    of updated planes; stage 2 is the three-dispatch-per-plane
    recursion; the diff is one fused pass at the end.
    """
    _check_buffers(ws, cur, nxt, ghost_below, ghost_above)
    m_total = ws.n_planes
    n = ws.n
    d = ws.d
    a = ws.a
    db = ws.db
    if ws._stage is None:
        ws._stage = np.empty((m_total, n, n), dtype=ws.dtype)
    stage = ws._stage
    slab = ws.slab
    scratch = ws._slab_scratch()
    for s in range(0, m_total, slab):
        e = min(s + slab, m_total)
        m = e - s
        nbs = scratch[:m]
        curs = cur[s:e]
        # Above-neighbour (old iterate) …
        if e < m_total:
            np.copyto(nbs, cur[s + 1:e + 1])
        else:
            if m > 1:
                np.copyto(nbs[:-1], cur[s + 1:])
            if ghost_above is not None:
                np.copyto(nbs[-1], ghost_above)
            else:
                nbs[-1].fill(0.0)
        # … plus the 4 in-plane neighbours.
        _inplane_sum(nbs, curs, n)
        stages = stage[s:e]
        if a == 0.0:
            np.multiply(nbs, d, out=stages)
        else:
            np.multiply(nbs, d, out=stages)
            np.multiply(curs, a, out=nbs)
            np.add(stages, nbs, out=stages)
        if db is not None:
            np.add(stages, db if isinstance(db, float) else db[s:e], out=stages)
    # Sequential recursion: nxt[z] = P(stage[z] + d·below).
    los = ws._lower_planes
    ups = ws._upper_planes
    below = ghost_below
    for z in range(m_total):
        nz = nxt[z]
        if below is None:
            np.copyto(nz, stage[z])
        else:
            np.multiply(below, d, out=nz)
            np.add(nz, stage[z], out=nz)
        if los[z] is not None:
            np.maximum(nz, los[z], out=nz)
        if ups[z] is not None:
            np.minimum(nz, ups[z], out=nz)
        below = nz
    np.subtract(nxt, cur, out=stage)
    # + 0.0: a zero diff is +0.0, whichever signed zero the reductions
    # happened to keep.
    return max(float(stage.max()), -float(stage.min())) + 0.0


_NUMPY_KERNELS = {"jacobi": _jacobi_numpy,
                  "gauss_seidel": _gauss_seidel_numpy}


def begin_block_sweep(ws: SweepWorkspace, cur: np.ndarray, nxt: np.ndarray,
                      ghost_below: Optional[np.ndarray],
                      ghost_above: Optional[np.ndarray],
                      order: str = "gauss_seidel") -> None:
    """Start one relaxation of a block ``[lo, hi)`` with ghost planes;
    :func:`finish_block_sweep` collects it.

    On the compiled backend the sweep is queued for the worker pool,
    split into row bands when the block is large enough, and this
    returns at once; the numpy kernels (the fallback, and arrays the
    compiled path refuses) run here and now.  Until the finish, ``cur``,
    the ghosts and ``nxt`` belong to the sweep."""
    if order not in _NUMPY_KERNELS:
        raise ValueError(f"unknown sweep order {order!r}")
    if ws._inflight is not None:
        raise RuntimeError("a sweep of this workspace is already in "
                           "flight; finish it first")
    compiled = ws._compiled
    if compiled is not None and compiled.start(order, cur, nxt, ghost_below,
                                               ghost_above):
        ws._inflight = (order, None, (cur, nxt, ghost_below, ghost_above))
    else:
        ws._inflight = (order, _numpy_sweep(ws, order, cur, nxt, ghost_below,
                                            ghost_above), None)


def finish_block_sweep(ws: SweepWorkspace) -> float:
    """Finish the sweep :func:`begin_block_sweep` started (running its
    bands no worker has taken yet, then waiting for the rest) and
    return its diff, ‖nxt − cur‖∞ (NaN when any update is NaN)."""
    if ws._inflight is None:
        raise RuntimeError("no sweep of this workspace is in flight")
    order, diff, arrays = ws._inflight
    ws._inflight = None
    if arrays is None:
        return diff  # the numpy kernel ran at the begin
    diff = ws._compiled.join()
    if diff is None:  # nxt overlaps an input: nothing was written
        return _numpy_sweep(ws, order, *arrays)
    return diff


def block_sweep(ws: SweepWorkspace, cur: np.ndarray, nxt: np.ndarray,
                ghost_below: Optional[np.ndarray],
                ghost_above: Optional[np.ndarray],
                order: str = "gauss_seidel") -> float:
    """One relaxation of a block ``[lo, hi)`` with ghost planes — the
    distributed solver's kernel.  ``order`` picks the in-node schedule."""
    begin_block_sweep(ws, cur, nxt, ghost_below, ghost_above, order)
    return finish_block_sweep(ws)
