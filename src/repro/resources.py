"""Explicit resource contexts for the solver/runner/campaign stack.

Everything that used to be a process-global singleton — the
slab-autotune verdict (:mod:`repro.numerics.kernels`), the per-kind
problem cache
(:mod:`repro.solvers.distributed_richardson`), and the shared-runner
registry (:mod:`repro.parallel.runner`) — now lives in an instantiable
:class:`ResourceContext`.  One context per owner: a plain solve uses the
process-wide default context (so every pre-existing call site behaves
exactly as before), a :class:`~repro.campaign.engine.Campaign` owns a
private context, and each campaign driver process builds its own at
startup.

Two rules keep this honest:

- **Contexts never share mutable resource state.**  A runner lease or
  a cached problem acquired through one context is
  invisible to every other context, so two campaigns can run
  concurrently in one process without stepping on each other.
- **The context rides the call, never the params.**  Simulated task
  params are wire payload (their size feeds the network model), so the
  context is threaded out-of-band: ``run_job(job, resources=...)``
  → ``P2PDC`` → ``TaskExecutor`` → ``TaskContext.resources`` → the
  block solver.

Passing ``resources=None`` anywhere means "use the default context" —
the thin module-level wrappers in the kernels/runner/solver modules all
resolve through :func:`resolve_context`.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.telemetry import Telemetry

__all__ = ["ResourceContext", "default_context", "resolve_context"]


class ResourceContext:
    """One owner's worth of pooled solver resources.

    Slots (all lazily populated by the layers that use them):

    ``slab_bytes``
        The cached slab-autotune verdict
        (:func:`repro.numerics.kernels.autotune_slab_bytes`), or
        ``None`` for not-yet-measured.
    ``problem_cache``
        Bounded ``(kind, n) -> ObstacleProblem`` LRU used by
        :func:`repro.solvers.distributed_richardson.get_problem`.
    ``runner_lock`` / ``runners`` / ``runner_keys``
        The refcounted shared-runner registry behind
        :func:`repro.parallel.runner.acquire_shared_runner` — key →
        ``[runner, refcount]`` plus the reverse ``id(runner) -> key``
        map.
    ``telemetry``
        The owner's :class:`repro.telemetry.Telemetry` (metrics registry
        + span buffer).  Same ownership rule as the pools: handles never
        cross process boundaries — worker processes reset theirs at
        startup and ship snapshots back for the parent to merge.
    """

    def __init__(self, name: str = "context") -> None:
        self.name = str(name)
        self.slab_bytes: Optional[int] = None
        self.problem_cache: dict = {}
        self.runner_lock = threading.Lock()
        self.runners: dict = {}
        self.runner_keys: dict = {}
        self.telemetry = Telemetry(name=f"{self.name}-telemetry")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResourceContext({self.name!r}, "
                f"slab={self.slab_bytes}, "
                f"problems={len(self.problem_cache)}, "
                f"runners={len(self.runners)})")


#: The process-wide context every ``resources=None`` call site resolves
#: to.  Pre-context code (and worker processes that never build their
#: own) runs entirely against this one, bit-identically to the old
#: module-global behaviour.
_DEFAULT = ResourceContext(name="default")


def default_context() -> ResourceContext:
    """The process-wide default :class:`ResourceContext`."""
    return _DEFAULT


def resolve_context(resources: Optional[ResourceContext]) -> ResourceContext:
    """``resources`` itself, or the default context when ``None``."""
    return resources if resources is not None else _DEFAULT
