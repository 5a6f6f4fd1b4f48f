"""Driving sharded sweeps: the bridge between kernels, workers and DES.

:class:`ParallelBlockRunner` owns one :class:`SharedPlaneArena` plus one
:class:`ShardPool` and exposes exactly the operations the solver layer
and the benchmarks need:

- ``sweep(shard)`` — one relaxation of one shard in its worker process
  (what a DES-resident peer calls from ``BlockState.sweep``);
- ``submit_sweep``/``wait_sweep`` — the split-phase flavour;
- ``sweep_all()`` — one relaxation step of *every* shard, concurrently
  across workers: wall-clock scales with cores while the per-shard
  numerics stay bit-identical to the inline kernels;
- ``block``/``first_plane``/``last_plane``/``set_ghost_*`` — the views
  the DES-modeled ``P2P_Send``/``P2P_Receive`` path reads boundary
  planes from and writes received (possibly delayed, eq. (5)) iterates
  into;
- ``exchange_ghosts()`` — the in-arena shortcut used when the runner
  iterates standalone (benchmarks, equivalence tests), equivalent to a
  zero-latency synchronous exchange.

The solver acquires one *shared* runner per distributed solve through
:func:`acquire_shared_runner` (every simulated peer lives in the one
driver process, but each owns a different shard), and releases it when
its sub-task completes; the last release shuts the pool down and unlinks
the shared memory.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Sequence

import numpy as np

from ..numerics.tolerances import check_dtype, resolve_dtype
from ..resources import resolve_context
from .arena import SharedPlaneArena
from .pool import ShardPool

__all__ = [
    "ParallelBlockRunner",
    "acquire_shared_runner",
    "release_shared_runner",
    "rebind_shared_runner",
]


class ParallelBlockRunner:
    """Sharded sweep executor over shared-memory planes."""

    def __init__(self, problem_kind: str, n: int,
                 ranges: Optional[Sequence[tuple[int, int]]] = None,
                 n_shards: Optional[int] = None,
                 delta: Optional[float] = None,
                 n_workers: Optional[int] = None,
                 order: str = "gauss_seidel",
                 start_method: Optional[str] = None,
                 dtype=None, resources=None):
        from ..numerics.blocks import partition_planes
        from ..solvers.distributed_richardson import get_problem

        if ranges is None:
            if n_shards is None:
                raise ValueError("pass either ranges or n_shards")
            ranges = [(r.start, r.stop) for r in partition_planes(n, n_shards)]
        self.resources = resources
        self.problem = get_problem(problem_kind, n, resources=resources)
        self.problem_kind = problem_kind
        self.n = n
        self.dtype = resolve_dtype(dtype)
        self.delta = float(delta) if delta is not None else \
            self.problem.jacobi_delta()
        self.order = order
        self.arena = SharedPlaneArena(n, ranges, dtype=self.dtype)
        self.n_shards = self.arena.n_shards
        self._flip = [0] * self.n_shards
        self._pending: set[int] = set()
        # Telemetry handles (arena traffic + in-flight occupancy),
        # pre-resolved once against the owning context.  Observation
        # only: nothing below reads these back into sweep scheduling.
        tele = resolve_context(resources).telemetry
        self._tele = tele if tele.enabled else None
        if self._tele is not None:
            self._m_scatter = tele.histogram("repro_arena_scatter_seconds")
            self._m_gather = tele.histogram("repro_arena_gather_seconds")
            self._m_submitted = tele.counter("repro_sweeps_submitted_total")
            self._m_wait = tele.histogram("repro_sweep_wait_seconds")
            self._m_inflight = tele.gauge("repro_sweeps_in_flight_max")
        # Optional human-readable owner labels ("rank 2 (peer02)"), so
        # in-flight-at-close errors name the peer, not just the shard.
        self._shard_labels: dict[int, str] = {}
        self._range_index = {r: k for k, r in enumerate(self.arena.ranges)}
        # Feasible start + matching ghosts, exactly as BlockState does
        # (one deliberate cast to the arena dtype, here at the edge).
        u0 = self.problem.feasible_start().astype(self.dtype)
        for k, (lo, hi) in enumerate(self.arena.ranges):
            np.copyto(self.arena.block(k, 0), u0[lo:hi])
            if lo > 0:
                np.copyto(self.arena.ghost_below(k), u0[lo - 1])
            if hi < n:
                np.copyto(self.arena.ghost_above(k), u0[hi])
        try:
            self.pool = ShardPool(
                self.arena, problem_kind, self.delta,
                n_workers=n_workers, start_method=start_method,
                resources=resources,
            )
        except BaseException:
            self.arena.close()
            raise
        self._closed = False

    # -- lookup -----------------------------------------------------------------

    @property
    def n_workers(self) -> int:
        return self.pool.n_workers

    def label_shard(self, shard: int, label: Optional[str]) -> None:
        """Name the shard's owner for diagnostics (None clears it)."""
        if label is None:
            self._shard_labels.pop(int(shard), None)
        else:
            self._shard_labels[int(shard)] = str(label)

    def describe_shards(self, shards) -> str:
        """Render shard ids with their owner labels, for error messages."""
        return ", ".join(
            f"{s} [{self._shard_labels[s]}]" if s in self._shard_labels
            else str(s)
            for s in sorted(shards)
        )

    def shard_for(self, lo: int, hi: int) -> int:
        """The shard owning exactly planes ``[lo, hi)``."""
        try:
            return self._range_index[(lo, hi)]
        except KeyError:
            raise LookupError(
                f"no shard covers [{lo}, {hi}); shards: {self.arena.ranges}"
            ) from None

    # -- plane access (driver-process side) ----------------------------------------

    def block(self, shard: int) -> np.ndarray:
        """The shard's *current* iterate (rotation-aware view)."""
        self._check_idle(shard)
        return self.arena.block(shard, self._flip[shard])

    def first_plane(self, shard: int) -> np.ndarray:
        """U_f(k): boundary sub-block sent to node k−1."""
        return self.block(shard)[0]

    def last_plane(self, shard: int) -> np.ndarray:
        """U_l(k): boundary sub-block sent to node k+1."""
        return self.block(shard)[-1]

    def ghost_below(self, shard: int) -> Optional[np.ndarray]:
        self._check_open()
        return self.arena.ghost_below(shard)

    def ghost_above(self, shard: int) -> Optional[np.ndarray]:
        self._check_open()
        return self.arena.ghost_above(shard)

    def set_ghost_below(self, shard: int, plane: np.ndarray) -> None:
        """Install a received boundary plane (the P2P_Receive hand-off)."""
        self._check_idle(shard)
        check_dtype(plane, self.dtype, "received boundary plane")
        ghost = self.arena.ghost_below(shard)
        if ghost is None:
            raise RuntimeError("shard touches the domain boundary below")
        np.copyto(ghost, plane)

    def set_ghost_above(self, shard: int, plane: np.ndarray) -> None:
        self._check_idle(shard)
        check_dtype(plane, self.dtype, "received boundary plane")
        ghost = self.arena.ghost_above(shard)
        if ghost is None:
            raise RuntimeError("shard touches the domain boundary above")
        np.copyto(ghost, plane)

    def gather(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Assemble the full ``(n, n, n)`` iterate (copies out of shm)."""
        if out is None:
            out = np.empty((self.n, self.n, self.n), dtype=self.dtype)
        else:
            check_dtype(out, self.dtype, "gather output")
        t_start = perf_counter() if self._tele is not None else 0.0
        for k, (lo, hi) in enumerate(self.arena.ranges):
            np.copyto(out[lo:hi], self.block(k))
        if self._tele is not None:
            self._m_gather.observe(perf_counter() - t_start)
        return out

    def scatter(self, u: np.ndarray) -> None:
        """Load a full iterate into the shards (and refresh all ghosts)."""
        if u.shape != (self.n, self.n, self.n):
            raise ValueError(f"expected {(self.n,) * 3}, got {u.shape}")
        check_dtype(u, self.dtype, "scattered iterate")
        t_start = perf_counter() if self._tele is not None else 0.0
        for k, (lo, hi) in enumerate(self.arena.ranges):
            np.copyto(self.block(k), u[lo:hi])
            if lo > 0:
                np.copyto(self.arena.ghost_below(k), u[lo - 1])
            if hi < self.n:
                np.copyto(self.arena.ghost_above(k), u[hi])
        if self._tele is not None:
            self._m_scatter.observe(perf_counter() - t_start)

    def exchange_ghosts(self) -> None:
        """Zero-latency synchronous boundary exchange between shards."""
        self._check_open()
        for k in range(self.n_shards - 1):
            np.copyto(self.arena.ghost_below(k + 1), self.last_plane(k))
            np.copyto(self.arena.ghost_above(k), self.first_plane(k + 1))

    # -- sweeping ----------------------------------------------------------------

    def submit_sweep(self, shard: int, order: Optional[str] = None) -> None:
        """Queue one relaxation of ``shard`` on its worker (non-blocking).

        Until the matching :meth:`wait_sweep`, the shard's views must not
        be read or written — the worker owns them.
        """
        self._check_open()
        if shard in self._pending:
            raise RuntimeError(f"shard {shard} already has a sweep in flight")
        self._pending.add(shard)
        if self._tele is not None:
            self._m_submitted.inc()
            self._m_inflight.set_max(len(self._pending))
        self.pool.submit(shard, self._flip[shard], order or self.order)

    def wait_sweep(self, shard: int) -> float:
        """Block until the queued sweep of ``shard`` completes; rotate
        buffers; return the shard's max-norm diff."""
        self._check_open()
        if shard not in self._pending:
            raise RuntimeError(
                f"no sweep in flight for shard {shard} (double collect, "
                "or submit_sweep was never called)"
            )
        t_start = perf_counter() if self._tele is not None else 0.0
        try:
            diff = self.pool.collect(shard)
        finally:
            # The worker's reply is consumed even when it is an error —
            # the command is spent either way, so the shard must leave
            # the pending set or a later close() would wait on (or
            # complain about) a sweep that no longer exists.
            self._pending.discard(shard)
        self._flip[shard] ^= 1
        if self._tele is not None:
            self._m_wait.observe(perf_counter() - t_start)
        return diff

    def sweep(self, shard: int, order: Optional[str] = None) -> float:
        """One relaxation of one shard (submit + wait)."""
        self.submit_sweep(shard, order)
        return self.wait_sweep(shard)

    def sweep_all(self, order: Optional[str] = None) -> list[float]:
        """One relaxation of every shard, concurrently across workers."""
        for shard in range(self.n_shards):
            self.submit_sweep(shard, order)
        return [self.wait_sweep(shard) for shard in range(self.n_shards)]

    def step_synchronous(self, order: Optional[str] = None) -> float:
        """One synchronous distributed step: sweep all shards, then the
        boundary rendezvous.  Returns the global max-norm diff."""
        diffs = self.sweep_all(order)
        self.exchange_ghosts()
        return max(diffs)

    # -- campaign keep-alive ------------------------------------------------------

    def rebind_delta(self, delta: float) -> None:
        """Re-aim the live worker pool at a new relaxation step.

        The campaign engine keeps one runner (arena + worker pool) alive
        across a delta sweep; between solves it rebinds instead of
        tearing down and re-forking.  Workers rebuild exactly the baked
        constants a fresh pool would carry, so post-rebind solves are
        bit-identical to cold ones.  All sweeps must be collected first.
        """
        self._check_open()
        if self._pending:
            raise RuntimeError(
                f"sweeps in flight for shards "
                f"{self.describe_shards(self._pending)}; "
                "collect them before rebinding"
            )
        delta = float(delta)
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.pool.rebind(delta)
        self.delta = delta

    # -- lifecycle ---------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "runner is closed (its pool and shared-memory arena are "
                "gone); acquire a fresh one"
            )

    def _check_idle(self, shard: int) -> None:
        self._check_open()
        if shard in self._pending:
            raise RuntimeError(
                f"shard {shard} has a sweep in flight; its views are "
                "owned by the worker until wait_sweep()"
            )

    def discard_pending_sweeps(self) -> list[int]:
        """Drain every outstanding sweep and drop the results (abort
        paths only).  Returns the shards that were drained.  The arena
        stays consistent — each drained sweep still rotates its shard's
        buffers, exactly as a normal collect would."""
        drained = sorted(self._pending)
        for shard in drained:
            self.wait_sweep(shard)
        return drained

    def close(self, discard_pending: bool = False) -> None:
        """Shut the pool down and unlink the arena.

        Outstanding sweeps at shutdown are a driver bug — someone
        submitted work and lost track of it — so a plain ``close()``
        raises instead of silently orphaning the worker replies.  Abort
        paths that *know* they are abandoning work pass
        ``discard_pending=True`` (the context-manager exit does, when an
        exception is already propagating, so the original error is
        never masked).
        """
        if self._closed:
            return
        if self._pending:
            if not discard_pending:
                raise RuntimeError(
                    f"sweeps still in flight for shards "
                    f"{self.describe_shards(self._pending)} at close; "
                    "collect them with wait_sweep() — or "
                    "close(discard_pending=True) on an abort path that is "
                    "deliberately abandoning them"
                )
            # Best-effort drain: a worker that died or errored must not
            # keep close() from tearing the pool and arena down (that
            # would leak processes and the shm segment, and mask the
            # exception already propagating on this abort path).
            for shard in sorted(self._pending):
                try:
                    self.wait_sweep(shard)
                except Exception:
                    pass
            self._pending.clear()
        self._closed = True
        self.pool.close()
        self.arena.close()

    def __enter__(self) -> "ParallelBlockRunner":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        self.close(discard_pending=exc_type is not None)


# -- shared runners for the DES-resident solver ---------------------------------------
#
# Every simulated peer of one distributed solve lives in the same driver
# process; they share one runner (one arena, one pool) and each drives
# its own shard.  Reference counting ties the pool's lifetime to the
# solve: the first peer creates, the last releases.  The registry lives
# on a ResourceContext (one per campaign / driver process; the default
# context for plain solves), so two contexts never hand each other
# runners — that isolation is what lets independent campaign branches
# run in separate drivers.


def acquire_shared_runner(problem_kind: str, n: int,
                          ranges: Sequence[tuple[int, int]],
                          delta: float,
                          n_workers: Optional[int] = None,
                          start_method: Optional[str] = None,
                          dtype=None, resources=None,
                          ) -> ParallelBlockRunner:
    # dtype is part of the key (by canonical name): a float32 solve must
    # never be handed a float64 arena, and vice versa.
    ctx = resolve_context(resources)
    key = (problem_kind, n, tuple(tuple(r) for r in ranges), float(delta),
           n_workers, start_method, resolve_dtype(dtype).name)
    with ctx.runner_lock:
        entry = ctx.runners.get(key)
        if entry is None:
            runner = ParallelBlockRunner(
                problem_kind, n, ranges=ranges, delta=delta,
                n_workers=n_workers, start_method=start_method,
                dtype=dtype, resources=resources,
            )
            entry = ctx.runners[key] = [runner, 0]
            ctx.runner_keys[id(runner)] = key
        entry[1] += 1
        return entry[0]


def release_shared_runner(runner: ParallelBlockRunner,
                          resources=None) -> None:
    """Drop one reference; the last reference closes pool + arena.

    Releasing a runner that is not registered — never acquired through
    :func:`acquire_shared_runner` on the same context, or already fully
    released — raises instead of quietly closing: with campaign
    keep-alive a double release would otherwise shut a pool down
    underneath its remaining holders (and the next acquire would hand
    out a corpse).
    """
    ctx = resolve_context(resources)
    with ctx.runner_lock:
        key = ctx.runner_keys.get(id(runner))
        if key is None:
            raise RuntimeError(
                "runner is not in the shared registry of this context — it "
                "was never acquired via acquire_shared_runner here, or this "
                "is a double release after the last reference already "
                "closed it"
            )
        entry = ctx.runners[key]
        entry[1] -= 1
        if entry[1] <= 0:
            del ctx.runners[key]
            del ctx.runner_keys[id(runner)]
            runner.close()


def rebind_shared_runner(runner: ParallelBlockRunner, delta: float,
                         resources=None) -> None:
    """Re-key a held shared runner to a new ``delta`` (campaign path).

    The campaign engine holds exactly one keep-alive reference between
    solves; when the next job in a delta sweep wants the same
    ``(problem, n, ranges, dtype)`` at a different step size, the held
    pool is rebound and re-registered under the new key so the solver's
    own ``acquire_shared_runner`` call finds it.  Refuses when anyone
    besides the single keep-alive holder still references the runner
    (a live solve would observe its delta changing mid-flight), and on
    key collisions (a distinct runner already serves the target key).
    """
    ctx = resolve_context(resources)
    with ctx.runner_lock:
        key = ctx.runner_keys.get(id(runner))
        if key is None:
            raise RuntimeError(
                "runner is not in the shared registry of this context; "
                "only runners held via acquire_shared_runner can be rebound"
            )
        entry = ctx.runners[key]
        if entry[1] != 1:
            raise RuntimeError(
                f"runner has {entry[1]} references; rebinding needs "
                "exactly one (the campaign keep-alive lease)"
            )
        new_key = key[:3] + (float(delta),) + key[4:]
        if new_key == key:
            return
        if new_key in ctx.runners:
            raise RuntimeError(
                "another shared runner already serves the target "
                "configuration; release one of them first"
            )
        runner.rebind_delta(delta)
        del ctx.runners[key]
        ctx.runners[new_key] = entry
        ctx.runner_keys[id(runner)] = new_key
