"""Mixed-precision multigrid ladder: planning, keys, execution, identity.

The ladder contract has three legs:

1. **Planning** — ``plan_jobs(..., ladder=True)`` prepends a
   coarse-float32 → fine-float32 chain to every eligible float64 job,
   clamps stage tolerances to the float32 termination floor, and keeps
   each chain one contiguous branch; ``ladder=False`` plans are
   byte-identical to the historical planner.
2. **Cache keying** — a laddered job's signature folds in the warm
   seed's provenance kind and the transfer-operator version, so ladder
   results can never collide with cold ones.
3. **Execution** — the polish runs warm through an interpolated/cast
   seed (recorded in provenance), reaches the same verified STOP as a
   cold solve, and is bit-identical across ``drivers=1`` and
   ``drivers=N``.
"""

import numpy as np
import pytest

from repro.campaign import (
    Campaign,
    CampaignJob,
    WarmEdge,
    expand_matrix,
    ladder_stages,
    plan_jobs,
)
from repro.campaign.engine import resolve_cache_keys
from repro.campaign.jobs import LADDER_MIN_N, _check_neighbour_edge
from repro.numerics import min_termination_tol
from repro.solvers.distributed_richardson import get_problem

N = 12
TOL = 1e-3


def stable_deltas(k):
    """k distinct relaxation steps just under the Jacobi default."""
    base = get_problem("membrane", N).jacobi_delta()
    return [base * (0.90 + 0.02 * i) for i in range(k)]


def target_job(**kw):
    kw.setdefault("n", N)
    kw.setdefault("n_peers", 1)
    kw.setdefault("scheme", "synchronous")
    kw.setdefault("tol", TOL)
    return CampaignJob(**kw)


class TestLadderPlanning:
    def test_chain_shape(self):
        job = target_job()
        plan = plan_jobs([job], ladder=True)
        assert [(j.n, j.dtype) for j in plan.order] == [
            (N // 2, "float32"), (N, "float32"), (N, "float64")]
        coarse, fine32, target = plan.order
        assert plan.warm_sources == {
            fine32.key(): coarse.key(),
            target.key(): fine32.key(),
        }
        assert plan.warm_edges[fine32.key()] == WarmEdge(
            source=coarse.key(), kind="ladder",
            n_source=N // 2, dtype_source="float32")
        assert plan.warm_edges[target.key()] == WarmEdge(
            source=fine32.key(), kind="ladder",
            n_source=N, dtype_source="float32")

    def test_chain_is_one_branch(self):
        plan = plan_jobs([target_job()], ladder=True)
        branches = plan.branches()
        assert len(branches) == 1
        assert branches[0] == plan.order

    def test_stage_tol_clamped_to_float32_floor(self):
        floor = min_termination_tol("float32")
        tight = target_job(tol=1e-6)  # below the float32 floor
        for stage in ladder_stages(tight):
            assert stage.tol == floor
            assert stage.dtype == "float32"
        loose = target_job(tol=1e-3)  # above: kept as-is
        assert all(s.tol == 1e-3 for s in ladder_stages(loose))

    def test_stages_drop_explicit_delta(self):
        job = target_job(delta=0.004)
        stages = ladder_stages(job)
        assert all(s.delta is None for s in stages)

    @pytest.mark.parametrize("job,why", [
        (target_job(dtype="float32"), "float32 target"),
        (target_job(n=LADDER_MIN_N - 2), "below minimum size"),
        (target_job(n=LADDER_MIN_N, n_peers=LADDER_MIN_N),
         "coarse grid has fewer planes than peers"),
    ])
    def test_ineligible_targets_stay_cold(self, job, why):
        plan = plan_jobs([job], ladder=True)
        assert plan.order == [job], why
        assert plan.warm_sources == {}

    def test_warm_seeded_targets_keep_their_neighbour_seed(self):
        d0, d1 = stable_deltas(2)
        jobs = expand_matrix(ns=[N], deltas=[d0, d1], tol=TOL)
        plan = plan_jobs(jobs, warm_start=True, ladder=True)
        by_delta = {j.delta: j for j in plan.order if j.dtype == "float64"}
        # Only the chain head (smallest delta) ladders; the second job
        # keeps its tighter neighbour seed.
        assert plan.warm_edges[by_delta[d1].key()].kind == "neighbour"
        assert plan.warm_edges[by_delta[d0].key()].kind == "ladder"

    def test_shared_stages_merge_across_targets(self):
        a = target_job(seed=0)
        jobs = [a, a]  # duplicates collapse; one chain total
        plan = plan_jobs(jobs, ladder=True)
        assert len(plan.order) == 3

    def test_sources_precede_dependents(self):
        jobs = expand_matrix(ns=[N], n_peers=[1, 2], tol=TOL)
        plan = plan_jobs(jobs, warm_start=True, ladder=True)
        position = {j.key(): i for i, j in enumerate(plan.order)}
        for dst, src in plan.warm_sources.items():
            assert position[src] < position[dst]

    def test_ladder_off_is_byte_identical(self):
        jobs = expand_matrix(ns=[N], n_peers=[1, 2],
                             deltas=[None, stable_deltas(1)[0]], tol=TOL)
        off = plan_jobs(jobs, warm_start=True)
        default = plan_jobs(jobs, warm_start=True, ladder=False)
        assert [j.signature() for j in off.order] == \
            [j.signature() for j in default.order]
        assert off.warm_sources == default.warm_sources
        _ckeys, signatures = resolve_cache_keys(off)
        for sig in signatures.values():
            assert "warm_kind" not in sig
            assert "transfer" not in sig


class TestNeighbourEdgeAudit:
    """Satellite: only the explicit ladder edge type may cross sizes or
    dtypes — nearest-neighbour edges are checked at planning time."""

    def test_planner_never_crosses_non_delta_axes(self):
        jobs = expand_matrix(
            ns=[8, 12], n_peers=[1, 2], dtypes=["float64", "float32"],
            schemes=["synchronous", "asynchronous"],
            deltas=[None, 0.004, 0.005], tol=TOL)
        plan = plan_jobs(jobs, warm_start=True)
        by_key = {j.key(): j for j in plan.order}
        assert plan.warm_sources  # the matrix does produce chains
        for dst, src in plan.warm_sources.items():
            a, b = by_key[src].signature(), by_key[dst].signature()
            a.pop("delta"), b.pop("delta")
            assert a == b
            assert plan.warm_edges[dst].kind == "neighbour"

    def test_cross_size_neighbour_edge_refused(self):
        with pytest.raises(ValueError, match="ladder edges"):
            _check_neighbour_edge(target_job(n=8), target_job(n=12))

    def test_cross_dtype_neighbour_edge_refused(self):
        with pytest.raises(ValueError, match="ladder edges"):
            _check_neighbour_edge(target_job(dtype="float32"),
                                  target_job(dtype="float64"))


class TestLadderCacheKeys:
    def test_laddered_target_never_collides_with_cold(self):
        job = target_job()
        cold = plan_jobs([job])
        hot = plan_jobs([job], ladder=True)
        cold_keys, _ = resolve_cache_keys(cold)
        hot_keys, hot_sigs = resolve_cache_keys(hot)
        assert cold_keys[job.key()] != hot_keys[job.key()]
        sig = hot_sigs[job.key()]
        assert sig["warm_kind"] == "cast@float32"
        assert sig["transfer"] >= 1
        coarse, fine32, _target = hot.order
        assert hot_sigs[fine32.key()]["warm_kind"] == \
            f"interpolated@{N // 2}"

    def test_keys_are_statically_computable(self):
        """The whole key map is a pure function of the plan — identical
        across two computations (what lets branches be dispatched to
        drivers before anything runs)."""
        plan = plan_jobs([target_job()], ladder=True)
        assert resolve_cache_keys(plan) == resolve_cache_keys(plan)


class TestLadderExecution:
    @pytest.fixture(scope="class")
    def runs(self):
        job = target_job()
        with Campaign([job]) as c:
            cold = c.run()
        with Campaign([job], ladder=True) as c:
            hot = c.run()
        return job, cold, hot

    def test_polish_runs_warm_with_cast_provenance(self, runs):
        _job, _cold, hot = runs
        [rec] = hot.records
        prov = rec.result.report.provenance
        assert prov["warm_start"].endswith(":cast@float32")
        assert prov["warm_start"].startswith("campaign:")

    def test_same_verified_stop_as_cold(self, runs):
        """The laddered polish satisfies the exact STOP invariant a
        cold float64 solve is verified against: per-peer final diffs at
        or under tol, and the final residual at or under tol.  (STOP is
        diff-based, so two independently-converged iterates need not
        coincide — the invariant is about each solve's own evidence.)"""
        job, cold, hot = runs
        for out in (cold, hot):
            [rec] = out.records
            assert rec.result.residual <= job.tol
            assert rec.result.report.u.dtype == np.float64
            assert rec.result.report.u.shape == (N, N, N)
            for peer in rec.result.report.per_peer:
                assert peer.final_diff <= job.tol
                assert peer.converged_at is not None

    def test_submitted_records_only(self, runs):
        _job, _cold, hot = runs
        assert len(hot.records) == 1  # stages are plan nodes, not records

    def test_interpolated_stage_provenance_via_cache(self, tmp_path):
        """Run the ladder against a rooted cache and inspect the fine
        float32 stage's stored provenance: it must record the
        interpolated cross-size seed."""
        job = target_job()
        from repro.campaign import ResultCache

        with Campaign([job], ladder=True,
                      cache=ResultCache(tmp_path)) as c:
            c.run()
        labels = []
        entries = sorted(tmp_path.glob("*.entry"))
        assert len(entries) == 3  # coarse, fine float32, polish
        for path in entries:
            # Read back through a fresh instance: what is on disk.
            stored = ResultCache(tmp_path).load(path.stem)
            prov = stored.report.provenance
            labels.append(prov.get("warm_start"))
        assert any(lbl and f":interpolated@{N // 2}" in lbl
                   for lbl in labels)
        assert any(lbl and lbl.endswith(":cast@float32")
                   for lbl in labels)

    def test_drivers_bit_identical(self):
        jobs = expand_matrix(ns=[N], n_peers=[1, 2], tol=TOL)
        with Campaign(jobs, ladder=True) as c:
            seq = c.run()
        with Campaign(jobs, ladder=True, drivers=2) as c:
            par = c.run()
        assert len(par.records) == len(seq.records)
        for p, s in zip(par.records, seq.records):
            assert p.cache_key == s.cache_key
            assert np.array_equal(p.result.report.u, s.result.report.u)
            assert p.result.relaxations == s.result.relaxations
            assert p.result.report.provenance == s.result.report.provenance

    def test_ladder_off_execution_identical_to_cold(self):
        """The hard contract: a ladder-disabled campaign's records are
        bit-identical to a plain one's."""
        jobs = expand_matrix(ns=[N], n_peers=[1, 2],
                             deltas=[None, stable_deltas(1)[0]], tol=TOL)
        with Campaign(jobs, warm_start=True) as c:
            plain = c.run()
        with Campaign(jobs, warm_start=True, ladder=False) as c:
            off = c.run()
        for p, s in zip(plain.records, off.records):
            assert p.cache_key == s.cache_key
            assert np.array_equal(p.result.report.u, s.result.report.u)
            assert p.result.report.provenance == s.result.report.provenance
