"""Campaign × asynchronous stepping.

Campaign resources (one shared resource context across a delta sweep)
must be invisible to an asynchronous solve — and because async schemes
are order-sensitive, "invisible" is asserted at the strongest level
available: the full recorded (peer, iteration, ghost-exchange) schedule
of every pooled run, including every plane's bytes, equals its cold
``run_job`` counterpart's — for both dtypes.  Warm starts deliberately change trajectories,
so the planner must never wire a warm edge across a scheme boundary and
the cache key must carry the edge.
"""

import numpy as np
import pytest

from repro.campaign import Campaign, CampaignJob, cache_key, plan_jobs
from repro.parallel.trace import (
    assert_traces_equal,
    record_schedule,
    replay_trace,
)
from repro.experiments.harness import run_job
from repro.solvers.distributed_richardson import get_problem

N = 8
TOL = 1e-3


def _jobs(dtype):
    base = get_problem("membrane", N).jacobi_delta()
    return [
        CampaignJob(n=N, n_peers=2, scheme="asynchronous", tol=TOL,
                    dtype=dtype, delta=delta)
        for delta in (base, base * 0.9)
    ]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_pooled_async_equals_cold_under_trace(dtype):
    jobs = _jobs(dtype)
    cold_traces = []
    for job in jobs:
        with record_schedule() as rec:
            run_job(job)
        cold_traces.append(rec.trace)
    with record_schedule() as rec:
        with Campaign(jobs) as campaign:
            outcome = campaign.run()
    assert outcome.runs == len(jobs)
    pooled_traces = rec.all_traces()
    assert len(pooled_traces) == len(cold_traces)
    for cold, pooled in zip(cold_traces, pooled_traces):
        assert_traces_equal(cold, pooled)


def test_pooled_async_trace_replays():
    """The pooled recording replays to the recorded iterates — campaign
    pooling and async stepping compose without any trajectory drift."""
    jobs = _jobs("float64")[:1]
    with record_schedule() as rec:
        with Campaign(jobs) as campaign:
            result = campaign.run().records[0].result
    trace = rec.trace
    replay = replay_trace(trace)
    assert np.array_equal(replay.gather(), result.report.u)


class TestWarmEdgesRespectSchemeBoundaries:
    def test_warm_edges_never_cross_schemes(self):
        base = get_problem("membrane", N).jacobi_delta()
        jobs = [
            CampaignJob(n=N, n_peers=2, scheme=scheme, tol=TOL, delta=delta)
            for scheme in ("synchronous", "asynchronous", "hybrid")
            for delta in (base, base * 0.9, base * 0.8)
        ]
        plan = plan_jobs(jobs, warm_start=True)
        by_key = {job.key(): job for job in plan.order}
        assert plan.warm_sources  # the sweep groups did chain
        for child, parent in plan.warm_sources.items():
            assert by_key[child].scheme == by_key[parent].scheme, (
                "warm-start edge crosses a scheme boundary: "
                f"{by_key[parent].label()} -> {by_key[child].label()}"
            )

    def test_warm_edges_never_cross_dtype(self):
        base = get_problem("membrane", N).jacobi_delta()
        jobs = [
            CampaignJob(n=N, n_peers=2, scheme="asynchronous", tol=TOL,
                        dtype=dtype, delta=delta)
            for dtype in ("float64", "float32")
            for delta in (base, base * 0.9)
        ]
        plan = plan_jobs(jobs, warm_start=True)
        by_key = {job.key(): job for job in plan.order}
        assert plan.warm_sources  # the sweep groups did chain
        for child, parent in plan.warm_sources.items():
            assert by_key[child].dtype == by_key[parent].dtype

    def test_cache_key_carries_the_warm_edge(self):
        sig = CampaignJob(n=N, n_peers=2, scheme="asynchronous").signature()
        cold = cache_key(dict(sig, warm_from=None))
        warm = cache_key(dict(sig, warm_from="abc123"))
        other = cache_key(dict(sig, warm_from="def456"))
        assert len({cold, warm, other}) == 3
