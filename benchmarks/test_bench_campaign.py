"""Campaign cache service: a delta sweep served from a populated cache.

A 10-job delta-sweep campaign (same ``(n, ranges, dtype)``, only delta
varies) is solved once to populate an in-memory result cache, then
re-run through it with nothing left to solve.  The cache's hit/miss
counters are recorded as ``extra_info`` — ``run_bench.py`` lifts the
hit rate into ``BENCH_micro.json`` as ``campaign_cache_service``, a
first-class gated metric.
"""

from repro.campaign import Campaign, ResultCache, expand_matrix
from repro.solvers.distributed_richardson import get_problem

#: Grid size of the campaign benchmark solves (small on purpose: the
#: metric is cache service, so solve time should not drown it).
CAMPAIGN_N = 12
N_JOBS = 10
N_PEERS = 2
TOL = 1e-3


def _delta_sweep_jobs():
    base = get_problem("membrane", CAMPAIGN_N).jacobi_delta()
    deltas = [base * (0.80 + 0.02 * i) for i in range(N_JOBS)]
    return expand_matrix(
        ns=[CAMPAIGN_N], n_peers=[N_PEERS], schemes=["synchronous"],
        deltas=deltas, tol=TOL,
    )


def test_bench_campaign_cached_service(benchmark):
    """The 10-job sweep served from a populated result cache: an
    upper bound on campaign service latency when nothing needs solving.

    The cache's lifetime counters ride along as ``extra_info``; with
    pedantic rounds fixed, the hit rate is deterministic (first pass
    misses, every measured pass hits), so ``run_bench.py --check`` can
    gate it exactly: any drop means jobs silently stopped hitting.
    """
    jobs = _delta_sweep_jobs()
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
