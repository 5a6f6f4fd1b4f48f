"""Figure 5 / Figure 6 series: the paper's evaluation sweep.

Each figure shows, for one problem size (96³ for Figure 5, 144³ for
Figure 6) and for machine counts α ∈ {1, 2, 4, 8, 16, 24}:

  - wall-clock time,
  - number of relaxations,
  - speedup,
  - efficiency,

for the synchronous, asynchronous and hybrid schemes, each measured on a
single cluster and on 2 clusters joined by a 100 ms Netem path.

:func:`figure_series` regenerates one figure's data (scaled by default —
see :mod:`repro.experiments.harness`); :func:`check_paper_claims`
asserts the qualitative findings of Section V.C on a series.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence


from .harness import DEFAULT_TOL, RunResult, full_mode

__all__ = [
    "FigureSeries",
    "figure_jobs",
    "figure_series",
    "check_paper_claims",
    "PAPER_PEER_COUNTS",
    "FIG5_N",
    "FIG6_N",
    "scaled_size",
]

#: Machine counts of Figures 5 and 6.
PAPER_PEER_COUNTS = (1, 2, 4, 8, 16, 24)

#: Paper problem sizes.
FIG5_N = 96
FIG6_N = 144


def scaled_size(n_paper: int) -> int:
    """The laptop-scale stand-in for a paper problem size."""
    if full_mode():
        return n_paper
    return {FIG5_N: 24, FIG6_N: 36}.get(n_paper, max(8, n_paper // 4))


@dataclasses.dataclass
class FigureSeries:
    """All runs for one figure: results[(scheme, clusters, alpha)]."""

    n_paper: int
    n: int
    peer_counts: tuple[int, ...]
    results: dict[tuple[str, int, int], RunResult]

    @property
    def sequential_time(self) -> float:
        return self.results[("synchronous", 1, 1)].elapsed

    def series(self, scheme: str, clusters: int) -> list[RunResult]:
        return [
            self.results[(scheme, clusters if alpha > 1 else 1, alpha)]
            for alpha in self.peer_counts
            if (scheme, clusters if alpha > 1 else 1, alpha) in self.results
        ]

    def times(self, scheme: str, clusters: int) -> list[float]:
        return [r.elapsed for r in self.series(scheme, clusters)]

    def relaxations(self, scheme: str, clusters: int) -> list[float]:
        return [r.relaxations for r in self.series(scheme, clusters)]

    def speedups(self, scheme: str, clusters: int) -> list[float]:
        t1 = self.sequential_time
        return [r.speedup(t1) for r in self.series(scheme, clusters)]

    def efficiencies(self, scheme: str, clusters: int) -> list[float]:
        t1 = self.sequential_time
        return [r.efficiency(t1) for r in self.series(scheme, clusters)]


def figure_jobs(
    n_paper: int,
    peer_counts: Sequence[int] = PAPER_PEER_COUNTS,
    schemes: Sequence[str] = ("synchronous", "asynchronous", "hybrid"),
    cluster_counts: Sequence[int] = (1, 2),
    tol: float = DEFAULT_TOL,
    n_override: Optional[int] = None,
    dtype: str = "float64",
):
    """The campaign jobs of one figure's grid.

    Returns ``(n, peer_counts, baseline_job, job_for)``: the run size,
    the machine counts actually used (clipped to α ≤ n), the α = 1
    baseline job every series shares, and a map from each multi-peer
    ``(scheme, clusters, alpha)`` cell to its job.
    """
    from ..campaign import CampaignJob

    n = n_override if n_override is not None else scaled_size(n_paper)
    peer_counts = tuple(a for a in peer_counts if a <= n)

    def job(alpha: int, clusters: int, scheme: str) -> "CampaignJob":
        return CampaignJob(
            n=n, n_peers=alpha, n_clusters=clusters, scheme=scheme,
            tol=tol, n_paper=n_paper, dtype=dtype,
        )

    baseline = job(1, 1, "synchronous")
    job_for: dict[tuple[str, int, int], CampaignJob] = {}
    for scheme in schemes:
        for clusters in cluster_counts:
            for alpha in peer_counts:
                if alpha == 1 or clusters > alpha:
                    continue
                key = (scheme, clusters, alpha)
                if key not in job_for:
                    job_for[key] = job(alpha, clusters, scheme)
    return n, tuple(peer_counts), baseline, job_for


def figure_series(
    n_paper: int,
    peer_counts: Sequence[int] = PAPER_PEER_COUNTS,
    schemes: Sequence[str] = ("synchronous", "asynchronous", "hybrid"),
    cluster_counts: Sequence[int] = (1, 2),
    tol: float = DEFAULT_TOL,
    n_override: Optional[int] = None,
    cache=None,
) -> FigureSeries:
    """Regenerate one figure's full data set.

    α = 1 is run once (cluster split is meaningless for one machine) and
    shared by both cluster series, like the paper's plots.

    The grid executes through the campaign engine: passing a
    :class:`~repro.campaign.ResultCache` lets a re-regeneration (or an
    overlapping figure) skip already-solved cells.  Campaign execution
    is bit-identical to the historical per-run loop.
    """
    from ..campaign import Campaign

    n, peer_counts, baseline_job, job_for = figure_jobs(
        n_paper, peer_counts, schemes, cluster_counts, tol, n_override,
    )
    with Campaign([baseline_job, *job_for.values()], cache=cache) as campaign:
        outcome = campaign.run()
    results: dict[tuple[str, int, int], RunResult] = {}
    baseline = outcome.result_for(baseline_job)
    for scheme in schemes:
        results[(scheme, 1, 1)] = baseline
    for key, job in job_for.items():
        results[key] = outcome.result_for(job)
    return FigureSeries(
        n_paper=n_paper, n=n, peer_counts=tuple(peer_counts), results=results
    )


def check_paper_claims(series: FigureSeries, alphas: Optional[Sequence[int]] = None
                       ) -> list[str]:
    """Assert the qualitative findings of Section V.C; returns the list
    of violated claims (empty = full reproduction).

    Claims checked:

    C1. Asynchronous schemes outperform synchronous ones (time, for the
        multi-peer points).
    C2. Synchronous relaxation count is (nearly) constant with α;
        asynchronous average relaxations grow with α.
    C3. Synchronous efficiency degrades sharply on 2 clusters;
        asynchronous efficiency is close between 1 and 2 clusters.
    C4. Hybrid efficiency sits between synchronous and asynchronous
        (2-cluster series, large α).
    """
    alphas = [a for a in (alphas or series.peer_counts) if a > 1]
    failures: list[str] = []

    def get(scheme, clusters, alpha):
        return series.results.get((scheme, clusters, alpha))

    # C1 — async beats sync on time wherever both exist (α > 1).
    for clusters in (1, 2):
        for a in alphas:
            s, y = get("synchronous", clusters, a), get("asynchronous", clusters, a)
            if s and y and not y.elapsed <= s.elapsed * 1.05:
                failures.append(
                    f"C1: async slower than sync at α={a}, {clusters} cluster(s) "
                    f"({y.elapsed:.3f}s vs {s.elapsed:.3f}s)"
                )

    # C2 — sync relaxations ~constant; async grows.
    sync_relax = [get("synchronous", 1, a).relaxations
                  for a in alphas if get("synchronous", 1, a)]
    if sync_relax and (max(sync_relax) > 1.25 * min(sync_relax)):
        failures.append(f"C2: sync relaxations not ~constant: {sync_relax}")
    async_relax = [get("asynchronous", 1, a).relaxations
                   for a in alphas if get("asynchronous", 1, a)]
    if len(async_relax) >= 2 and not async_relax[-1] > async_relax[0]:
        failures.append(f"C2: async relaxations do not grow: {async_relax}")

    # C3 — sync hurt by 2 clusters; async insensitive.
    t1 = series.sequential_time
    for a in alphas:
        s1, s2 = get("synchronous", 1, a), get("synchronous", 2, a)
        if s1 and s2 and not s2.elapsed > 1.5 * s1.elapsed:
            failures.append(
                f"C3: sync not hurt by 2 clusters at α={a} "
                f"({s2.elapsed:.3f}s vs {s1.elapsed:.3f}s)"
            )
        y1, y2 = get("asynchronous", 1, a), get("asynchronous", 2, a)
        if y1 and y2 and not y2.elapsed < 3.0 * y1.elapsed:
            failures.append(
                f"C3: async too sensitive to 2 clusters at α={a} "
                f"({y2.elapsed:.3f}s vs {y1.elapsed:.3f}s)"
            )

    # C4 — hybrid between sync and async on the 2-cluster efficiency.
    a_big = max(alphas)
    s, h, y = (get(sch, 2, a_big) for sch in
               ("synchronous", "hybrid", "asynchronous"))
    if s and h and y:
        es, eh, ey = (r.efficiency(t1) for r in (s, h, y))
        if not (es <= eh * 1.1 and eh <= ey * 1.1):
            failures.append(
                f"C4: hybrid efficiency not between sync and async at "
                f"α={a_big}: sync={es:.3f} hybrid={eh:.3f} async={ey:.3f}"
            )
    return failures
