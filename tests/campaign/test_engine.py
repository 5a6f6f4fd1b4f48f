"""Campaign engine: campaign-vs-cold equivalence, cache service, warm
starts.

The load-bearing contract is the acceptance criterion: a
campaign run must be *bit-identical* to cold ``run_job``
calls — iterates, relaxation counts, and simulated time — for both
dtypes; and a second execution of the same campaign must be served
from the result cache.
"""

import numpy as np
import pytest

from repro.campaign import Campaign, CampaignJob, ResultCache, expand_matrix
from repro.experiments.harness import run_job
from repro.solvers.distributed_richardson import get_problem

N = 8
TOL = 1e-3


def delta_sweep_jobs(n_jobs: int,
                     dtype: str = "float64") -> list[CampaignJob]:
    """A delta sweep: same (n, ranges, dtype), only delta varies."""
    base = get_problem("membrane", N).jacobi_delta()
    deltas = [base * (0.80 + 0.02 * i) for i in range(n_jobs)]
    return expand_matrix(ns=[N], n_peers=[2], schemes=["synchronous"],
                         deltas=deltas, tol=TOL, dtypes=[dtype])


def assert_identical(pooled, cold):
    assert np.array_equal(pooled.report.u, cold.report.u)
    assert pooled.report.u.dtype == cold.report.u.dtype
    assert pooled.relaxations == cold.relaxations
    assert pooled.elapsed == cold.elapsed  # simulated time, exact
    assert [r.relaxations for r in pooled.report.per_peer] == \
        [r.relaxations for r in cold.report.per_peer]
    assert pooled.residual == cold.residual


class TestPooledVsColdEquivalence:
    """Satellite: same job through the campaign == fresh cold call,
    for float64 and float32."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_bit_identical(self, dtype):
        jobs = delta_sweep_jobs(3, dtype=dtype)
        with Campaign(jobs) as campaign:
            outcome = campaign.run()
        for record in outcome.records:
            assert record.source == "run"
            assert_identical(record.result, run_job(record.job))

    def test_schemes_and_clusters(self):
        jobs = expand_matrix(ns=[N], n_peers=[1, 2], n_clusters=[1, 2],
                             schemes=["synchronous", "asynchronous",
                                      "hybrid"], tol=TOL)
        with Campaign(jobs) as campaign:
            outcome = campaign.run()
        assert outcome.runs == len(outcome.records)
        for record in outcome.records:
            assert_identical(record.result, run_job(record.job))


class TestDeltaSweepAcceptance:
    """The acceptance criterion's 10-job delta-sweep campaign."""

    @pytest.fixture(scope="class")
    def sweep(self):
        jobs = delta_sweep_jobs(10)
        cache = ResultCache()
        campaign = Campaign(jobs, cache=cache)
        first = campaign.run()
        second = campaign.run()
        yield jobs, campaign, first, second
        campaign.close()

    def test_pooled_results_bit_identical_to_cold(self, sweep):
        jobs, _campaign, first, _second = sweep
        for record in first.records:
            assert_identical(record.result, run_job(record.job))

    def test_second_execution_served_from_cache(self, sweep):
        _jobs, _campaign, _first, second = sweep
        hits = second.cache_hits
        assert hits >= 0.9 * len(second.records)
        assert hits == len(second.records)  # in fact: all of them

    def test_cached_results_identical(self, sweep):
        _jobs, _campaign, first, second = sweep
        for a, b in zip(first.records, second.records):
            assert np.array_equal(a.result.report.u, b.result.report.u)
            assert a.result.elapsed == b.result.elapsed


class TestWarmStart:
    def test_provenance_and_speedup(self):
        jobs = delta_sweep_jobs(2)
        with Campaign(jobs, warm_start=True) as campaign:
            outcome = campaign.run()
        first, second = outcome.records
        assert first.warm_from is None
        assert second.warm_from == first.key
        prov = second.result.report.provenance
        assert prov["warm_start"] == f"campaign:{first.key}"
        # Starting next to the solution must not *increase* the work.
        cold = run_job(second.job)
        assert second.result.relaxations <= cold.relaxations
        assert second.result.relaxations < cold.relaxations * 0.8

    def test_warm_and_cold_never_share_cache_entries(self):
        jobs = delta_sweep_jobs(2)
        cache = ResultCache()
        with Campaign(jobs, warm_start=True, cache=cache) as campaign:
            campaign.run()
        with Campaign(jobs, warm_start=False, cache=cache) as campaign:
            outcome = campaign.run()
        # The dependent job's trajectory differs, so the cold campaign
        # must re-solve it (only the sweep head can hit).
        assert [r.source for r in outcome.records] == ["cache", "run"]

    def test_truncated_sweep_never_hits_stale_warm_entries(self):
        """The warm-start edge is transitive: dropping the head of a
        warm sweep changes every downstream seed, so nothing downstream
        may be served from the full sweep's cache entries."""
        jobs = delta_sweep_jobs(3)
        cache = ResultCache()
        with Campaign(jobs, warm_start=True, cache=cache) as campaign:
            full = campaign.run()
        # Re-run only the tail: jobs[1] is now a sweep head (cold), so
        # jobs[2]'s seed differs from the full sweep's — both re-solve.
        with Campaign(jobs[1:], warm_start=True, cache=cache) as campaign:
            truncated = campaign.run()
        assert [r.source for r in truncated.records] == ["run", "run"]
        # And the truncated tail's result genuinely differs in cache
        # identity from the full sweep's entry for the same job.
        assert truncated.records[1].cache_key != full.records[2].cache_key


class TestDuplicatesAndLifecycle:
    def test_duplicate_jobs_collapse(self):
        job = CampaignJob(n=N, n_peers=2, tol=TOL)
        with Campaign([job, CampaignJob(n=N, n_peers=2, tol=TOL)]) as c:
            outcome = c.run()
        assert [r.source for r in outcome.records] == ["run", "duplicate"]
        assert outcome.records[0].result is outcome.records[1].result
        assert outcome.duplicates == 1

    def test_result_for_looks_jobs_up_by_content(self):
        job = CampaignJob(n=N, n_peers=2, tol=TOL)
        with Campaign([job, CampaignJob(n=N, n_peers=1, tol=TOL)]) as c:
            outcome = c.run()
        # An equal job built independently finds the same record.
        assert outcome.result_for(CampaignJob(n=N, n_peers=2, tol=TOL)) \
            is outcome.records[0].result
        stranger = CampaignJob(n=N, n_peers=3, tol=TOL)
        with pytest.raises(KeyError, match="no record for job"):
            outcome.result_for(stranger)

    def test_closed_campaign_refuses_to_run(self):
        campaign = Campaign([CampaignJob(n=N, tol=TOL)])
        campaign.close()
        campaign.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            campaign.run()

    def test_failing_job_raises_its_own_error_and_campaign_survives(
            self, monkeypatch):
        from repro.experiments import harness

        real = harness.run_job

        def run_job(job, **kwargs):
            if job.n_peers == 2:
                raise ValueError("boom")
            return real(job, **kwargs)

        jobs = [CampaignJob(n=N, n_peers=p, tol=TOL) for p in (1, 2, 3)]
        with Campaign(jobs, cache=ResultCache()) as campaign:
            monkeypatch.setattr(harness, "run_job", run_job)
            with pytest.raises(ValueError, match="boom"):
                campaign.run()
            monkeypatch.setattr(harness, "run_job", real)
            outcome = campaign.run()
        # The other branches finished before the error surfaced.
        assert [r.source for r in outcome.records] == \
            ["cache", "run", "cache"]
