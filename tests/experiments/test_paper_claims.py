"""Section V.C claims, asserted on a reduced Figure-5-style sweep.

These are the headline findings of the paper; the full sweeps live in
benchmarks/.  Here a small grid and peer set keep the suite fast while
every claim is still meaningfully exercised.
"""

import pytest

from repro.campaign import CampaignJob
from repro.experiments.figures import FigureSeries, check_paper_claims
from repro.experiments.harness import run_job

#: Paper-claim regeneration: the long lane; -m "not slow" skips it.
pytestmark = pytest.mark.slow

N = 12
N_PAPER = 96
ALPHAS = (1, 2, 4)
TOL = 1e-4


@pytest.fixture(scope="module")
def series():
    results = {}
    baseline = run_job(CampaignJob(
        n=N, n_peers=1, scheme="synchronous", n_paper=N_PAPER, tol=TOL,
    ))
    for scheme in ("synchronous", "asynchronous", "hybrid"):
        results[(scheme, 1, 1)] = baseline
        for clusters in (1, 2):
            for alpha in ALPHAS[1:]:
                results[(scheme, clusters, alpha)] = run_job(CampaignJob(
                    n=N, n_peers=alpha, n_clusters=clusters, scheme=scheme,
                    n_paper=N_PAPER, tol=TOL,
                ))
    return FigureSeries(
        n_paper=N_PAPER, n=N, peer_counts=ALPHAS, results=results
    )


class TestPaperClaims:
    def test_all_section_vc_claims_hold(self, series):
        failures = check_paper_claims(series)
        assert not failures, "\n".join(failures)

    def test_async_beats_sync_everywhere_multi_peer(self, series):
        for clusters in (1, 2):
            for alpha in ALPHAS[1:]:
                s = series.results[("synchronous", clusters, alpha)]
                a = series.results[("asynchronous", clusters, alpha)]
                assert a.elapsed <= s.elapsed * 1.05

    def test_sync_relaxations_constant(self, series):
        counts = {
            series.results[("synchronous", c, a)].relaxations
            for c in (1, 2) for a in ALPHAS[1:]
        }
        assert max(counts) <= 1.25 * min(counts)

    def test_async_relaxations_grow(self, series):
        r = [series.results[("asynchronous", 2, a)].relaxations
             for a in ALPHAS[1:]]
        assert r[-1] > r[0]

    def test_sync_collapses_on_two_clusters(self, series):
        one = series.results[("synchronous", 1, max(ALPHAS))]
        two = series.results[("synchronous", 2, max(ALPHAS))]
        assert two.elapsed > 3 * one.elapsed

    def test_async_insensitive_to_clusters(self, series):
        one = series.results[("asynchronous", 1, max(ALPHAS))]
        two = series.results[("asynchronous", 2, max(ALPHAS))]
        assert two.elapsed < 3 * one.elapsed

    def test_hybrid_between_sync_and_async(self, series):
        t1 = series.sequential_time
        a = max(ALPHAS)
        es = series.results[("synchronous", 2, a)].efficiency(t1)
        eh = series.results[("hybrid", 2, a)].efficiency(t1)
        ey = series.results[("asynchronous", 2, a)].efficiency(t1)
        assert es <= eh * 1.1
        assert eh <= ey * 1.1

    def test_all_solutions_actually_solve_the_problem(self, series):
        for r in series.results.values():
            assert r.residual < 10 * TOL

    def test_series_accessors(self, series):
        assert len(series.times("synchronous", 2)) == len(ALPHAS)
        assert len(series.efficiencies("asynchronous", 1)) == len(ALPHAS)
        assert series.sequential_time > 0
