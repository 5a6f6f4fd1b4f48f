"""ResourceContext: explicit contexts isolate every pooled resource.

The de-globalization contract: two contexts in one process must never
share slab-autotune verdicts (beyond the documented
hardware-scoped inheritance), problem caches, or runner leases — and
code running against an explicit context must never write the process
default, which belongs to plain call sites.
"""

import numpy as np
import pytest

from repro.campaign import Campaign, expand_matrix
from repro.numerics import kernels
from repro.parallel import runner as runner_mod
from repro.resources import ResourceContext, default_context, resolve_context
from repro.solvers.distributed_richardson import get_problem

N = 8
TOL = 1e-3


class TestContextBasics:
    def test_default_context_is_a_singleton(self):
        assert default_context() is default_context()
        assert resolve_context(None) is default_context()

    def test_resolve_passes_explicit_context_through(self):
        ctx = ResourceContext(name="mine")
        assert resolve_context(ctx) is ctx

    def test_fresh_context_is_empty(self):
        ctx = ResourceContext()
        assert ctx.slab_bytes is None
        assert ctx.problem_cache == {}
        assert ctx.runners == {}
        assert ctx.runner_keys == {}


class TestSlabAutotuneScoping:
    @pytest.fixture(autouse=True)
    def _clean_default(self):
        saved = default_context().slab_bytes
        yield
        default_context().slab_bytes = saved

    def test_context_inherits_default_verdict(self):
        kernels.seed_slab_autotune(1 << 20)
        ctx = ResourceContext()
        assert kernels.autotune_slab_bytes(ctx) == 1 << 20
        assert ctx.slab_bytes == 1 << 20  # memoized on the context

    def test_context_measurement_never_writes_default(self):
        kernels.clear_slab_autotune()
        ctx = ResourceContext()
        verdict = kernels.autotune_slab_bytes(ctx)
        assert verdict in kernels._SLAB_CANDIDATES
        assert ctx.slab_bytes == verdict
        assert default_context().slab_bytes is None

    def test_scoped_clear_leaves_default_alone(self):
        kernels.seed_slab_autotune(1 << 20)
        ctx = ResourceContext()
        kernels.seed_slab_autotune(1 << 21, resources=ctx)
        kernels.clear_slab_autotune(resources=ctx)
        assert ctx.slab_bytes is None
        assert default_context().slab_bytes == 1 << 20


class TestProblemCacheScoping:
    def test_scoped_get_problem_fills_only_its_context(self):
        ctx = ResourceContext()
        before = set(default_context().problem_cache)
        problem = get_problem("membrane", N, resources=ctx)
        assert ("membrane", N) in ctx.problem_cache
        # The default cache gained nothing from the scoped call.
        assert set(default_context().problem_cache) == before
        # Same key through the same context is the same instance ...
        assert get_problem("membrane", N, resources=ctx) is problem
        # ... but another context builds its own.
        other = ResourceContext()
        assert get_problem("membrane", N, resources=other) is not problem


class TestRunnerRegistryScoping:
    def test_same_key_in_two_contexts_yields_distinct_runners(self):
        problem = get_problem("membrane", N)
        ranges = ((0, N // 2), (N // 2, N))
        delta = problem.jacobi_delta()
        a, b = ResourceContext(name="a"), ResourceContext(name="b")
        ra = runner_mod.acquire_shared_runner(
            "membrane", N, ranges=ranges, delta=delta, n_workers=1,
            resources=a)
        try:
            rb = runner_mod.acquire_shared_runner(
                "membrane", N, ranges=ranges, delta=delta, n_workers=1,
                resources=b)
            try:
                assert ra is not rb
                assert len(a.runners) == 1
                assert len(b.runners) == 1
                assert default_context().runners == {}  # untouched
            finally:
                runner_mod.release_shared_runner(rb, resources=b)
        finally:
            runner_mod.release_shared_runner(ra, resources=a)
        assert a.runners == {}
        assert b.runners == {}

    def test_release_in_wrong_context_is_refused(self):
        problem = get_problem("membrane", N)
        ranges = ((0, N),)
        ctx = ResourceContext()
        runner = runner_mod.acquire_shared_runner(
            "membrane", N, ranges=ranges, delta=problem.jacobi_delta(),
            n_workers=1, resources=ctx)
        try:
            with pytest.raises(RuntimeError, match="not in the shared"):
                runner_mod.release_shared_runner(
                    runner, resources=ResourceContext())
        finally:
            runner_mod.release_shared_runner(runner, resources=ctx)


class TestConcurrentCampaignIsolation:
    def test_two_campaigns_share_nothing(self):
        """Two interleaved campaigns over the *same* process-executor
        job: each holds its own runner lease in its own context, and
        the process-default registry never sees either."""
        jobs = expand_matrix(ns=[N], n_peers=[2], schemes=["synchronous"],
                             executors=["process"], tol=TOL)
        with Campaign(jobs) as one, Campaign(jobs) as two:
            first = one.run()
            second = two.run()
            assert one.resources is not two.resources
            assert one.held_runners == 1
            assert two.held_runners == 1
            (ra,) = one._scheduler.leases.values()
            (rb,) = two._scheduler.leases.values()
            assert ra is not rb
            assert default_context().runners == {}
        assert one.resources.runners == {}
        assert two.resources.runners == {}
        a, b = first.records[0].result, second.records[0].result
        assert np.array_equal(a.report.u, b.report.u)
        assert a.elapsed == b.elapsed
