"""ResourceContext: explicit contexts isolate every pooled resource.

The de-globalization contract: two contexts in one process must never
share slab-autotune verdicts (beyond the documented
hardware-scoped inheritance) or problem caches — and
code running against an explicit context must never write the process
default, which belongs to plain call sites.
"""

import numpy as np
import pytest

from repro.campaign import Campaign, expand_matrix
from repro.numerics import kernels
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


class TestSlabAutotuneScoping:
    @pytest.fixture(autouse=True)
    def _clean_default(self):
        saved = default_context().slab_bytes
        yield
        default_context().slab_bytes = saved

    def test_context_inherits_default_verdict(self):
        default_context().slab_bytes = 1 << 20
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
        default_context().slab_bytes = 1 << 20
        ctx = ResourceContext()
        ctx.slab_bytes = 1 << 21
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


class TestConcurrentCampaignIsolation:
    def test_two_campaigns_share_nothing(self):
        """Two interleaved campaigns over the *same* job: each solves
        against its own context, and the process-default problem cache
        never sees either."""
        jobs = expand_matrix(ns=[N], n_peers=[2], schemes=["synchronous"],
                             tol=TOL)
        before = set(default_context().problem_cache)
        with Campaign(jobs) as one, Campaign(jobs) as two:
            first = one.run()
            second = two.run()
            assert one.resources is not two.resources
            assert ("membrane", N) in one.resources.problem_cache
            assert ("membrane", N) in two.resources.problem_cache
            assert one.resources.problem_cache[("membrane", N)] is not \
                two.resources.problem_cache[("membrane", N)]
            assert set(default_context().problem_cache) == before
        a, b = first.records[0].result, second.records[0].result
        assert np.array_equal(a.report.u, b.report.u)
        assert a.elapsed == b.elapsed
