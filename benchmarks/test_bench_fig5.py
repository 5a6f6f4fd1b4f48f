"""Figure 5 — obstacle problem 96³: time, relaxations, speedup, efficiency.

Regenerates all four panels for the synchronous / asynchronous / hybrid
schemes on 1 and 2 clusters.  Default: scaled stand-in size with
ratio-preserving CPU/bandwidth scaling; ``REPRO_FULL=1`` runs 96³ with
the paper's machine counts (1..24).

The benchmark timer measures harness wall time (how long regeneration
takes); the *scientific* output is the printed table — the same rows
EXPERIMENTS.md records.
"""


import pytest

from repro.experiments.figures import (
    FIG5_N,
    check_paper_claims,
    figure_series,
    scaled_size,
)
from repro.experiments.harness import full_mode
from repro.experiments.reporting import figure_report

#: Paper-claim regeneration: the long lane; -m "not slow" skips it.
pytestmark = pytest.mark.slow

ALPHAS = (1, 2, 4, 8, 16, 24) if full_mode() else (1, 2, 4, 8)


@pytest.fixture(scope="module")
def fig5_series():
    return figure_series(FIG5_N, peer_counts=ALPHAS)


def test_bench_figure5(benchmark, fig5_series, show):
    benchmark.pedantic(lambda: fig5_series, rounds=1, iterations=1)
    show(figure_report(
        fig5_series,
        title=f"Figure 5 (paper n={FIG5_N}, run n={fig5_series.n})",
    ))
    benchmark.extra_info["n"] = fig5_series.n
    benchmark.extra_info["alphas"] = list(fig5_series.peer_counts)
    failures = check_paper_claims(fig5_series)
    assert not failures, "\n".join(failures)


def test_bench_figure5_sync_1cluster_point(benchmark):
    """Single representative configuration as a stable timing probe."""
    from repro.campaign import CampaignJob
    from repro.experiments.harness import run_job

    job = CampaignJob(n=scaled_size(FIG5_N), n_peers=4, scheme="synchronous",
                      n_paper=FIG5_N)

    def run():
        return run_job(job)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.residual < 1e-3
