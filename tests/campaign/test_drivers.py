"""Multi-driver campaigns: branch planning, bit-identity, cache sharing.

The acceptance contract: ``Campaign(drivers=N)`` with N >= 2 executes
independent warm-start branches in N driver processes and produces
records *bit-identical* — iterates, relaxation counts, simulated time,
provenance — to the sequential engine's, for both dtypes; and a rooted
cache written by one invocation's drivers
serves another invocation's drivers.
"""

import numpy as np
import pytest

from repro.campaign import (
    Campaign,
    CampaignJob,
    ResultCache,
    expand_matrix,
    plan_jobs,
)
from repro.resources import default_context
from repro.solvers.distributed_richardson import get_problem

N = 8
TOL = 1e-3


def delta_sweep_jobs(n_jobs, dtype="float64"):
    base = get_problem("membrane", N).jacobi_delta()
    deltas = [base * (0.80 + 0.02 * i) for i in range(n_jobs)]
    return expand_matrix(ns=[N], n_peers=[2], schemes=["synchronous"],
                         deltas=deltas, tol=TOL, dtypes=[dtype])


def mixed_matrix():
    """A fig-style grid: several independent single-job branches."""
    return expand_matrix(ns=[N], n_peers=[1, 2], n_clusters=[1, 2],
                         schemes=["synchronous", "asynchronous"], tol=TOL)


def assert_records_identical(parallel, sequential):
    assert len(parallel.records) == len(sequential.records)
    for p, s in zip(parallel.records, sequential.records):
        assert p.key == s.key
        assert p.cache_key == s.cache_key
        assert p.warm_from == s.warm_from
        assert np.array_equal(p.result.report.u, s.result.report.u)
        assert p.result.report.u.dtype == s.result.report.u.dtype
        assert p.result.relaxations == s.result.relaxations
        assert p.result.elapsed == s.result.elapsed  # sim time, exact
        assert p.result.residual == s.result.residual
        assert [r.relaxations for r in p.result.report.per_peer] == \
            [r.relaxations for r in s.result.report.per_peer]
        assert p.result.report.provenance == s.result.report.provenance


class TestBranches:
    def test_without_warm_starts_every_job_is_a_singleton(self):
        plan = plan_jobs(mixed_matrix())
        branches = plan.branches()
        assert all(len(b) == 1 for b in branches)
        assert [j for b in branches for j in b] == plan.order

    def test_warm_sweep_is_one_branch(self):
        plan = plan_jobs(delta_sweep_jobs(4), warm_start=True)
        branches = plan.branches()
        assert len(branches) == 1
        assert branches[0] == plan.order

    def test_two_sweeps_are_two_branches(self):
        jobs = delta_sweep_jobs(3, dtype="float64") + \
            delta_sweep_jobs(3, dtype="float32")
        plan = plan_jobs(jobs, warm_start=True)
        branches = plan.branches()
        assert sorted(len(b) for b in branches) == [3, 3]
        assert [j for b in branches for j in b] == plan.order

    def test_concatenation_always_reproduces_order(self):
        jobs = mixed_matrix() + delta_sweep_jobs(3)
        for warm in (False, True):
            plan = plan_jobs(jobs, warm_start=warm)
            flat = [j for b in plan.branches() for j in b]
            assert flat == plan.order


class TestDriverValidation:
    def test_rejects_zero_drivers(self):
        with pytest.raises(ValueError, match="drivers"):
            Campaign([CampaignJob(n=N, tol=TOL)], drivers=0)


class TestParallelBitIdentity:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_matrix_matches_sequential(self, dtype):
        jobs = expand_matrix(ns=[N], n_peers=[1, 2],
                             schemes=["synchronous", "asynchronous"],
                             tol=TOL, dtypes=[dtype])
        with Campaign(jobs) as seq:
            sequential = seq.run()
        with Campaign(jobs, drivers=2) as par:
            parallel = par.run()
        assert_records_identical(parallel, sequential)

    def test_warm_sweep_matches_sequential(self):
        jobs = delta_sweep_jobs(4)
        with Campaign(jobs, warm_start=True) as seq:
            sequential = seq.run()
        with Campaign(jobs, warm_start=True, drivers=2) as par:
            parallel = par.run()
        assert {r.warm_from for r in parallel.records} != {None}
        assert_records_identical(parallel, sequential)

    def test_duplicates_collapse_identically(self):
        jobs = mixed_matrix()
        jobs = jobs + jobs[:2]
        with Campaign(jobs, drivers=2) as par:
            parallel = par.run()
        assert parallel.duplicates == 2
        assert [r.source for r in parallel.records].count("run") == \
            len(jobs) - 2

    def test_more_drivers_than_branches(self):
        jobs = delta_sweep_jobs(2)
        with Campaign(jobs, warm_start=True, drivers=3) as par, \
                Campaign(jobs, warm_start=True) as seq:
            assert_records_identical(par.run(), seq.run())


class TestParallelResourceIsolation:
    def test_no_default_context_writes(self):
        """A multi-driver run leaves the parent's process-default
        context exactly as it found it — no problem-cache growth
        beyond what planning itself needs."""
        before_problems = set(default_context().problem_cache)
        jobs = delta_sweep_jobs(3)
        with Campaign(jobs, warm_start=True, drivers=2) as campaign:
            outcome = campaign.run()
        assert outcome.runs == 3
        assert set(default_context().problem_cache) == before_problems


class TestCrossDriverCache:
    def test_second_invocation_cache_served_across_drivers(self, tmp_path):
        jobs = mixed_matrix()
        with Campaign(jobs, cache=ResultCache(tmp_path),
                      drivers=2) as first:
            cold = first.run()
        assert cold.cache_hits == 0
        # A *new* campaign (fresh driver workers, fresh contexts) over
        # the same rooted directory: every job is served from disk.
        with Campaign(jobs, cache=ResultCache(tmp_path),
                      drivers=2) as second:
            warm = second.run()
        assert warm.cache_hits == len(warm.records)
        assert_records_identical(warm, cold)

    def test_rerun_of_same_campaign_hits_parent_memory(self):
        """Worker results are re-membered into the parent's memory
        cache, so a second run() of one campaign object hits without
        a disk root."""
        jobs = mixed_matrix()[:4]
        with Campaign(jobs, cache=ResultCache(), drivers=2) as campaign:
            first = campaign.run()
            second = campaign.run()
        assert first.cache_hits == 0
        assert second.cache_hits == len(second.records)
        assert_records_identical(second, first)

    def test_warm_chain_keys_match_sequential(self, tmp_path):
        """Cache keys are computed statically on the planning side:
        a sequential campaign's entries serve a parallel one."""
        jobs = delta_sweep_jobs(3)
        with Campaign(jobs, warm_start=True,
                      cache=ResultCache(tmp_path)) as seq:
            sequential = seq.run()
        with Campaign(jobs, warm_start=True, cache=ResultCache(tmp_path),
                      drivers=2) as par:
            parallel = par.run()
        assert parallel.cache_hits == len(parallel.records)
        assert_records_identical(parallel, sequential)


class TestProgress:
    def test_progress_sees_every_unique_job(self):
        jobs = mixed_matrix()
        seen = []
        with Campaign(jobs, drivers=2) as campaign:
            campaign.run(progress=seen.append)
        assert sorted(r.key for r in seen) == \
            sorted({j.key() for j in jobs})


class TestLifecycle:
    def test_closed_campaign_refuses_to_run(self):
        campaign = Campaign([CampaignJob(n=N, tol=TOL)], drivers=2)
        campaign.close()
        with pytest.raises(RuntimeError, match="closed"):
            campaign.run()

    def test_close_is_idempotent(self):
        campaign = Campaign([CampaignJob(n=N, tol=TOL)], drivers=2)
        campaign.run()
        campaign.close()
        campaign.close()
