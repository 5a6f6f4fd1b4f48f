"""Standing invariants every scenario run must satisfy.

These are the fault-tolerance claims of the paper's Section II.D, made
checkable: adversity may slow a solve down, but it must never make the
environment *lie*.

no false STOP
    when the final epoch reports a verified STOP, one more global
    Gauss-Seidel sweep of the assembled solution must move it by at most
    a small multiple of the tolerance — a STOP certified against stale
    or crash-regressed state would fail this.
verified STOP
    the final (non-aborted) epoch terminates through the detector, not
    the abort path: every peer reports a ``converged_at``.
tolerance match
    the faulted solve's final residual is within a small factor of the
    fault-free baseline's — crashes and churn may not degrade the
    answer's quality.
error-envelope monotonicity between fault epochs
    replaying the recorded schedule through
    :class:`~repro.parallel.Replay`, the sup-norm distance to the true
    solution over everything a future sweep may read (blocks *and*
    ghosts) never grows at a sweep: sweeps are non-expansive, so only
    *fault* events (a restore to an older checkpoint, a stale ghost
    write) may raise the envelope — and those re-base it without a
    check.  This is the asynchronous-convergence envelope argument
    (eq. (5)) holding *through* the injected faults.

Deadlock-freedom (the remaining standing invariant) is checked by the
engine itself: an epoch that outlives its virtual-time budget is torn
down and reported as a violation.
"""

from __future__ import annotations

import numpy as np

from ..numerics.richardson import projected_richardson
from ..parallel.trace import Replay, ScheduleTrace
from ..resources import default_context
from ..solvers.distributed_richardson import get_problem

__all__ = [
    "reference_solution",
    "check_error_envelope",
    "check_no_false_stop",
    "check_tolerance_match",
    "ENVELOPE_EPS",
    "STOP_MARGIN",
    "RESIDUAL_MARGIN",
]

#: Slack on the envelope check: the reference is itself solved to ~1e-10
#: and float64 sweeps accumulate rounding, so "never grows" is asserted
#: up to this absolute eps.
ENVELOPE_EPS = 1e-7

#: A verified STOP must leave the assembled iterate within this multiple
#: of tol under one more global sweep (the distributed streak criterion
#: certifies per-block diffs; a global sweep mixes block boundaries, so
#: an exact 1x bound would be wrong even fault-free).
STOP_MARGIN = 5.0

#: Faulted final residual must be within this factor of the baseline's.
RESIDUAL_MARGIN = 5.0

def reference_solution(problem_kind: str, n: int) -> np.ndarray:
    """The problem's solution to ~1e-10, read-only.

    Cached on the default resource context next to the problem it was
    solved for: evicted with it from the problem LRU and dropped by
    :func:`~repro.solvers.distributed_richardson.clear_problem_cache`.
    """
    key = (problem_kind, n)
    problem = get_problem(problem_kind, n)
    references = default_context().references
    ref = references.get(key)
    if ref is None:
        result = projected_richardson(
            problem, tol=1e-10, max_relaxations=200_000,
        )
        if not result.converged:
            raise RuntimeError(
                f"reference solve for {key} did not converge"
            )
        ref = result.u
        ref.flags.writeable = False
        references[key] = ref
    return ref


def check_error_envelope(
    trace: ScheduleTrace,
    violations: list[str],
    label: str = "",
    eps: float = ENVELOPE_EPS,
) -> int:
    """Replay ``trace`` asserting envelope monotonicity between faults.

    Returns the number of sweep events checked.  Violations are appended
    to ``violations`` (one per offending sweep, capped at 3 per trace so
    a systematically broken run doesn't flood the report).
    """
    ref = reference_solution(trace.solve["problem"], trace.solve["n"])
    checked = 0
    flagged = 0
    with Replay(trace) as replay:
        # Per rank, so an event recomputes only the rank it touched.
        per_rank = {rank: replay.error(ref, rank) for rank in replay.states}
        for ev in trace.events:
            replay.apply(ev)
            if ev.kind == "end":
                before = max(per_rank.values())
                per_rank[ev.rank] = replay.error(ref, ev.rank)
                after = max(per_rank.values())
                checked += 1
                if after > before + eps and flagged < 3:
                    flagged += 1
                    violations.append(
                        f"{label}envelope grew at sweep (rank {ev.rank}, "
                        f"it {ev.iteration}): {before:.3e} -> {after:.3e}"
                    )
            elif ev.kind in ("ghost", "restore"):
                # Fault/staleness events legitimately re-base the
                # envelope (a restored block is older; a delayed plane
                # carries an earlier epoch's error) — recompute, don't
                # check.
                per_rank[ev.rank] = replay.error(ref, ev.rank)
    return checked


def check_no_false_stop(
    u: np.ndarray,
    problem_kind: str,
    n: int,
    tol: float,
    violations: list[str],
    margin: float = STOP_MARGIN,
) -> float:
    """One more global sweep of the assembled solution must be quiet."""
    result = projected_richardson(
        get_problem(problem_kind, n), tol=np.inf,
        max_relaxations=1, u0=np.asarray(u, dtype=np.float64),
    )
    diff = result.final_diff
    if not diff <= margin * tol:
        violations.append(
            f"false STOP: a global sweep of the final iterate moved it by "
            f"{diff:.3e} (> {margin:g} x tol={tol:g})"
        )
    return float(diff)


def check_tolerance_match(
    residual: float,
    baseline_residual: float,
    violations: list[str],
    margin: float = RESIDUAL_MARGIN,
) -> None:
    """The faulted solve must reach the fault-free solution quality."""
    bound = margin * max(baseline_residual, 1e-300)
    if not np.isfinite(residual) or residual > bound:
        violations.append(
            f"tolerance mismatch: faulted residual {residual:.3e} vs "
            f"baseline {baseline_residual:.3e} (allowed {margin:g}x)"
        )


def check_verified_stop(report, violations: list[str]) -> None:
    """Every peer of the final epoch stopped through the detector."""
    missing = [rep.rank for rep in report.per_peer
               if rep.converged_at is None]
    if missing:
        violations.append(
            f"final epoch ended without a verified STOP on rank(s) {missing}"
        )


def check_all(
    traces: list[ScheduleTrace],
    final_report,
    tol: float,
    baseline_residual: float,
    violations: list[str],
) -> None:
    """Run every post-hoc invariant (the engine adds deadlock checks)."""
    for i, trace in enumerate(traces):
        check_error_envelope(trace, violations, label=f"epoch {i}: ")
    if final_report is None:
        return
    check_verified_stop(final_report, violations)
    check_no_false_stop(
        final_report.u, final_report.per_peer[0].extra["problem"],
        final_report.n, tol, violations,
    )
    check_tolerance_match(final_report.residual, baseline_residual, violations)
