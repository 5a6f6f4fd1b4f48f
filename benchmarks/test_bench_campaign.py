"""Campaign setup amortization: cold per-run setup vs a kept-alive pool.

The acceptance shape of the campaign subsystem: a 10-job delta-sweep
campaign (same ``(n, ranges, dtype)``, only delta varies) on the
process executor through one keep-alive worker pool, against the same
ten jobs as cold ``run_job`` calls.  The solves are
bit-identical — the equivalence suite asserts that — so the entire
cold/pooled delta is *setup*: worker-pool forking + shared-memory arena
setup.  (The inline executor has no setup worth keeping: a pool of
sweep workspaces measured 0.95–1.01x and was deleted.)

``run_bench.py`` derives ``campaign_setup_amortization`` (cold mean /
pooled mean) from these and records ``cpu_count`` next to it.

The result cache is deliberately off for the amortization pairs: they
measure pooled *execution*, not cache service.  Cache service gets its
own benchmark (``test_bench_campaign_cached_service``): the same sweep
run again through a populated cache, with the cache's hit/miss counters
recorded as ``extra_info`` — ``run_bench.py`` lifts the hit rate into
``BENCH_micro.json`` as a first-class gated metric.
"""

import numpy as np

from repro.campaign import Campaign, ResultCache, expand_matrix
from repro.experiments.harness import run_job
from repro.solvers.distributed_richardson import get_problem

#: Grid size of the campaign benchmark solves (small on purpose: the
#: metric is setup amortization, so solve time should not drown it).
CAMPAIGN_N = 12
N_JOBS = 10
N_PEERS = 2
TOL = 1e-3


def _delta_sweep_jobs(executor: str):
    base = get_problem("membrane", CAMPAIGN_N).jacobi_delta()
    deltas = [base * (0.80 + 0.02 * i) for i in range(N_JOBS)]
    return expand_matrix(
        ns=[CAMPAIGN_N], n_peers=[N_PEERS], schemes=["synchronous"],
        deltas=deltas, tol=TOL, executors=[executor],
    )


def _run_cold(jobs):
    """Ten cold harness calls: every run rebuilds all of its setup."""
    residual = 0.0
    for job in jobs:
        result = run_job(job)
        residual = max(residual, result.residual)
    return residual


def test_bench_campaign_cold_process(benchmark):
    """Baseline: 10 cold runs, process executor (a worker pool + shm
    arena forked and torn down per solve)."""
    jobs = _delta_sweep_jobs("process")
    residual = benchmark.pedantic(_run_cold, args=(jobs,), rounds=3,
                                  iterations=1, warmup_rounds=1)
    assert np.isfinite(residual)


def test_bench_campaign_pooled_process(benchmark):
    """10-job campaign, process executor: one keep-alive ShardPool
    survives the whole sweep (rebound between deltas, never re-forked)."""
    jobs = _delta_sweep_jobs("process")
    campaign = Campaign(jobs)  # no cache: measure execution, not service
    try:
        # warmup_rounds=1 starts the worker pool (first round is the
        # cold one that builds what later rounds reuse).
        outcome = benchmark.pedantic(campaign.run, rounds=3,
                                     iterations=1, warmup_rounds=1)
        assert outcome.runs == N_JOBS
        assert all(np.isfinite(r.result.residual) for r in outcome.records)
    finally:
        campaign.close()


def test_bench_campaign_cached_service(benchmark):
    """The 10-job sweep served from a populated result cache: an
    upper bound on campaign service latency when nothing needs solving.

    The cache's lifetime counters ride along as ``extra_info``; with
    pedantic rounds fixed, the hit rate is deterministic (first pass
    misses, every measured pass hits), so ``run_bench.py --check`` can
    gate it exactly: any drop means jobs silently stopped hitting.
    """
    jobs = _delta_sweep_jobs("inline")
    cache = ResultCache()
    campaign = Campaign(jobs, cache=cache)
    try:
        campaign.run()  # populate: N_JOBS misses + stores
        outcome = benchmark.pedantic(campaign.run, rounds=3,
                                     iterations=1, warmup_rounds=1)
        assert outcome.cache_hits == N_JOBS
    finally:
        campaign.close()
    stats = cache.stats()
    assert stats["misses"] == N_JOBS  # only the populating pass missed
    benchmark.extra_info["cache_hits"] = stats["hits"]
    benchmark.extra_info["cache_misses"] = stats["misses"]
    benchmark.extra_info["cache_hit_rate"] = round(stats["hit_rate"], 4)
