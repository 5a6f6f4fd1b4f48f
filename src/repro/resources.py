"""Explicit resource contexts for the solver/campaign stack.

Pooled solver state — the per-kind problem cache
(:mod:`repro.solvers.distributed_richardson`), the reference solutions
of the scenario invariants (:mod:`repro.scenarios.invariants`) and the
telemetry registry — lives in an instantiable :class:`ResourceContext`,
not in module globals.  One context per owner: a plain solve uses the
process-wide default context (so every pre-existing call site behaves
exactly as before), a :class:`~repro.campaign.engine.Campaign` owns a
private context, and each campaign driver process builds its own at
startup.

Two rules keep this honest:

- **Contexts never share mutable resource state.**  A cached problem
  acquired through one context is invisible to every other context,
  so two campaigns can run
  concurrently in one process without stepping on each other.
- **The context rides the call, never the params.**  Simulated task
  params are wire payload (their size feeds the network model), so the
  context is threaded out-of-band: ``run_job(job, resources=...)``
  → ``P2PDC`` → ``TaskExecutor`` → ``TaskContext.resources`` → the
  block solver.

Passing ``resources=None`` anywhere means "use the default context" —
the thin module-level wrappers in the kernels/solver modules all
resolve through :func:`resolve_context`.
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry import Telemetry

__all__ = ["ResourceContext", "default_context", "resolve_context"]


class ResourceContext:
    """One owner's worth of pooled solver resources.

    Slots (all lazily populated by the layers that use them):

    ``problem_cache``
        Bounded ``(kind, n) -> ObstacleProblem`` LRU used by
        :func:`repro.solvers.distributed_richardson.get_problem`.
    ``references``
        ``(kind, n) -> ndarray``: the read-only reference solution of a
        cached problem (:func:`repro.scenarios.invariants.
        reference_solution`).  An entry lives exactly as long as its
        problem's entry in ``problem_cache``.
    ``telemetry``
        The owner's :class:`repro.telemetry.Telemetry` (metrics registry
        + span buffer).  Same ownership rule as the caches: handles never
        cross process boundaries — worker processes reset theirs at
        startup and ship snapshots back for the parent to merge.
    """

    def __init__(self, name: str = "context") -> None:
        self.name = str(name)
        self.problem_cache: dict = {}
        self.references: dict = {}
        self.telemetry = Telemetry(name=f"{self.name}-telemetry")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResourceContext({self.name!r}, "
                f"problems={len(self.problem_cache)})")


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
