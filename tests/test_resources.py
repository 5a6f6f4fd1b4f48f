"""ResourceContext: explicit contexts isolate every pooled resource.

The de-globalization contract: two contexts in one process must never
share problem caches — and code running against an explicit context
must never write the process default, which belongs to plain call
sites.  A problem's reference solution lives and dies with its cache
entry.
"""

import numpy as np
import pytest

from repro.campaign import Campaign, expand_matrix
from repro.resources import ResourceContext, default_context, resolve_context
from repro.scenarios import reference_solution
from repro.solvers.distributed_richardson import (
    _PROBLEM_CACHE_MAX,
    clear_problem_cache,
    get_problem,
)

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
        assert ctx.problem_cache == {}
        assert ctx.references == {}


class TestReferenceSolutions:
    def test_read_only_and_dropped_by_clear_problem_cache(self):
        ref = reference_solution("membrane", 4)
        with pytest.raises(ValueError, match="read-only"):
            ref[1, 1, 1] = 0.0
        assert reference_solution("membrane", 4) is ref  # cached
        assert ("membrane", 4) in default_context().references
        clear_problem_cache()
        assert ("membrane", 4) not in default_context().references
        assert reference_solution("membrane", 4) is not ref

    def test_evicted_with_its_problem(self):
        reference_solution("membrane", 4)
        for n in range(5, 5 + _PROBLEM_CACHE_MAX):
            get_problem("membrane", n)
        assert ("membrane", 4) not in default_context().problem_cache
        assert ("membrane", 4) not in default_context().references


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
