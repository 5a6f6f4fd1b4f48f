"""Block-local relaxation and halo (ghost plane) management.

A peer owns planes [lo, hi) of the global iterate as a ``(hi−lo, n, n)``
array plus two ghost planes holding the neighbours' boundary sub-blocks
(possibly delayed iterates — the ρ_j(p) of eq. (5)).  The relaxation
here is the same projected Richardson plane update as the sequential
solver's, re-indexed for block-local storage.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..numerics.kernels import (SweepWorkspace, begin_block_sweep,
                                finish_block_sweep)
from ..numerics.obstacle import ObstacleProblem
from ..numerics.richardson import FLOPS_PER_POINT
from ..numerics.tolerances import check_dtype, resolve_dtype

__all__ = ["BlockState", "relax_block_plane"]


def relax_block_plane(
    problem: ObstacleProblem,
    block: np.ndarray,
    z_local: int,
    z_global: int,
    delta: float,
    out: np.ndarray,
    scratch: np.ndarray,
    below: Optional[np.ndarray],
    above: Optional[np.ndarray],
) -> np.ndarray:
    """One relaxation of the block's z_local-th plane into ``out``.

    ``below``/``above`` are the z_global−1 / z_global+1 planes: block
    rows for interior planes, ghost planes at the block edges, None at
    the domain boundary (zero Dirichlet).
    """
    problem.apply_A_plane(
        block, z_local, out, scratch, below=below, above=above,
    )
    out -= problem.b[z_global]
    out *= -delta
    out += block[z_local]
    return problem.constraint.project_plane(out, z_global, out=out)


@dataclasses.dataclass
class BlockState:
    """A peer's share of the iterate, with ghosts.

    ``dtype`` selects the iterate precision (float64 default, float32
    opt-in).  The block, both ghosts, and the sweep workspace all carry
    it; a plane of any other dtype handed to ``update_ghost_*`` or
    ``warm_start`` is rejected loudly rather than silently cast.

    Split-phase sweeping (:meth:`begin_sweep` / :meth:`finish_sweep`)
    is the asynchronous-stepping primitive.  :meth:`begin_sweep` hands
    the sweep to the compiled library's worker threads (the numpy
    fallback runs it on the spot) and returns; :meth:`finish_sweep`
    joins it, rotates the block to the new iterate and returns the
    diff.  Between the two calls the sweep is *in flight*, and the
    guards of :meth:`_check_idle` are the thread-safety contract: no
    ghost may be written and no block warm-started while a worker may
    be reading them, and no boundary plane read nor block exported,
    because the iterate they would show is, in simulated time, still
    being computed.  So the sweep sees exactly the inputs it had at
    dispatch, whatever thread runs it and whenever, every ghost event
    of a recorded schedule falls between sweeps, never inside one, and
    the bits are those of a sweep run inline.  :meth:`abort_sweep`,
    :meth:`release` and dropping the state all join a sweep in flight
    first.  Recorded schedules and the schedule fuzz
    (:mod:`repro.parallel`) are written in these two calls.
    """

    problem: ObstacleProblem
    lo: int
    hi: int
    delta: float
    #: Iterate precision; any value accepted by
    #: :func:`repro.numerics.tolerances.resolve_dtype` (None = float64).
    dtype: object = None
    block: np.ndarray = dataclasses.field(init=False)
    ghost_below: Optional[np.ndarray] = dataclasses.field(init=False)
    ghost_above: Optional[np.ndarray] = dataclasses.field(init=False)

    #: In-node sweep order: "gauss_seidel" uses freshly updated planes
    #: ("the sub-blocks are computed sequentially at each node");
    #: "jacobi" uses only previous-iterate values, making the distributed
    #: synchronous scheme equal the sequential Jacobi sweep *exactly* —
    #: and its relaxation count exactly independent of α.
    local_sweep: str = "gauss_seidel"

    #: The :class:`~repro.resources.ResourceContext` the sweep workspace
    #: resolves its slab tuning and telemetry through (None = the
    #: process default context).
    resources: Optional[object] = None

    def __post_init__(self) -> None:
        n = self.problem.grid.n
        self._inflight = False
        self._released = False
        if not 0 <= self.lo < self.hi <= n:
            raise ValueError(f"invalid plane range [{self.lo}, {self.hi})")
        if self.local_sweep not in ("gauss_seidel", "jacobi"):
            raise ValueError(f"unknown local sweep {self.local_sweep!r}")
        self.dtype = resolve_dtype(self.dtype)
        self._flops = FLOPS_PER_POINT * n * n * self.n_planes
        # The single deliberate cast: the float64 problem start becomes
        # the iterate's dtype here, at the block boundary (a no-copy for
        # the float64 default is *not* wanted — the block must own its
        # storage), and everything downstream is dtype-checked.
        u0 = self.problem.feasible_start().astype(self.dtype)
        self.block = u0[self.lo:self.hi].copy()
        self.ghost_below = u0[self.lo - 1].copy() if self.lo > 0 else None
        self.ghost_above = u0[self.hi].copy() if self.hi < n else None
        self._workspace = SweepWorkspace(self.problem, self.delta,
                                         lo=self.lo, hi=self.hi,
                                         dtype=self.dtype,
                                         resources=self.resources)
        # Rotation buffer: each sweep writes the new iterate here, then
        # the two block arrays swap roles (no per-plane copies).
        self._next_block = self._workspace.rotation_buffer()

    @property
    def n_planes(self) -> int:
        return self.hi - self.lo

    @property
    def sweep_in_flight(self) -> bool:
        """True between :meth:`begin_sweep` and :meth:`finish_sweep`."""
        return self._inflight

    def _check_idle(self, what: str) -> None:
        if self._inflight:
            raise RuntimeError(
                f"cannot {what} while a sweep is in flight; call "
                "finish_sweep() first (the planes are owned by the sweep "
                "until then)"
            )

    @property
    def first_plane(self) -> np.ndarray:
        """U_f(k): boundary sub-block sent to node k−1."""
        self._check_idle("read a boundary plane")
        return self.block[0]

    @property
    def last_plane(self) -> np.ndarray:
        """U_l(k): boundary sub-block sent to node k+1."""
        self._check_idle("read a boundary plane")
        return self.block[-1]

    def update_ghost_below(self, plane: np.ndarray) -> None:
        self._check_idle("write a ghost plane")
        if self.ghost_below is None:
            raise RuntimeError("block touches the domain boundary below")
        check_dtype(plane, self.dtype, "received ghost plane (below)")
        np.copyto(self.ghost_below, plane)

    def update_ghost_above(self, plane: np.ndarray) -> None:
        self._check_idle("write a ghost plane")
        if self.ghost_above is None:
            raise RuntimeError("block touches the domain boundary above")
        check_dtype(plane, self.dtype, "received ghost plane (above)")
        np.copyto(self.ghost_above, plane)

    def warm_start(self, block: np.ndarray) -> None:
        """Resume from a checkpointed block (fault-tolerance restart)."""
        self._check_idle("warm-start the block")
        if block.shape != self.block.shape:
            raise ValueError(
                f"checkpoint shape {block.shape} != block {self.block.shape}"
            )
        check_dtype(block, self.dtype, "warm-start block")
        np.copyto(self.block, block)

    def begin_sweep(self) -> None:
        """Dispatch one relaxation of every owned plane, in ascending
        order, without waiting for it.

        A compiled sweep runs on a worker thread from here on, reading
        the block and both ghosts and writing the rotation buffer; the
        block is in flight until :meth:`finish_sweep`, so the
        consistency guards apply.
        """
        if self._inflight:
            raise RuntimeError(
                "sweep already in flight for this block; finish_sweep() "
                "it before beginning another"
            )
        begin_block_sweep(self._workspace, self.block, self._next_block,
                          self.ghost_below, self.ghost_above,
                          order=self.local_sweep)
        self._inflight = True

    def finish_sweep(self) -> float:
        """Collect the in-flight relaxation; returns the local max-norm
        change.  Raises if no sweep is in flight (double collect)."""
        if not self._inflight:
            raise RuntimeError(
                "no sweep in flight for this block (double finish_sweep, "
                "or begin_sweep was never called)"
            )
        self._inflight = False
        diff = finish_block_sweep(self._workspace)
        # Buffer rotation: the new iterate becomes the block, no copies.
        self.block, self._next_block = self._next_block, self.block
        return diff

    def abort_sweep(self) -> None:
        """Drop an in-flight sweep's result (abort paths: peer failure,
        solver teardown).  Idempotent.  It waits for the sweep, and the
        block keeps the swept iterate."""
        if self._inflight:
            self.finish_sweep()

    def sweep(self) -> float:
        """One relaxation of all owned sub-blocks, sequentially (the
        in-node Gauss–Seidel order of the paper) via the fused kernels
        and buffer rotation; returns the local max-norm change.

        Equivalent to relaxing plane by plane with
        :func:`relax_block_plane`, the cross-check the kernel tests
        assert."""
        self.begin_sweep()
        return self.finish_sweep()

    def release(self) -> None:
        """Drop the sweep workspace.

        Idempotent.  Call when the solve is over (``_BlockSolver.close``
        does); the block itself and both ghosts are privately owned and
        stay valid — only the kernel scratch goes.  An in-flight sweep is
        joined and its result discarded first (peer failure mid
        compute-charge), so no worker outlives the workspace.  A
        released state can be released again freely — every teardown
        path (normal report, Calculate()'s finally, fault-injection
        abort) calls it without coordinating with the others.
        """
        if self._released:
            return
        self._released = True
        self.abort_sweep()
        self._workspace = None

    def export_block(self) -> np.ndarray:
        """The block, once no sweep is in flight (safe to keep after the
        solve: the buffer is privately owned)."""
        self._check_idle("export the block")
        return self.block

    def flops(self) -> float:
        """Work of one sweep, for the simulation's compute-cost model."""
        return self._flops

