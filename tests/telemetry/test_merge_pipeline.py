"""Snapshot piggybacking: DriverPool workers report up.

Worker processes never share registry handles with their parent — they
ship snapshot dicts back over the pipes that already exist (DriverPool's
per-branch "done" messages plus its close handshake), and the parent
folds them in.  These tests hold the
two guarantees that make that trustworthy: counts observed inside a
worker end up in the owner's registry, and a worker crash never loses
snapshots that were already piggybacked.
"""

from repro.campaign import Campaign, CampaignJob, expand_matrix
from repro.campaign.driver import DriverPool
from repro.campaign.engine import resolve_cache_keys, tasks_for
from repro.campaign.jobs import plan_jobs
from repro.experiments.harness import run_job
from repro.resources import ResourceContext

N = 8
TOL = 1e-3


def _kernel_sweeps(snapshot):
    return sum(v for k, v in snapshot["counters"].items()
               if k.startswith("repro_kernel_sweeps_total"))


class TestOwnerContext:
    def test_kernel_counters_land_in_the_owner_context(self):
        ctx = ResourceContext(name="owner")
        result = run_job(
            CampaignJob(n=N, n_peers=2, scheme="synchronous", tol=TOL),
            resources=ctx,
        )
        snap = ctx.telemetry.snapshot()
        assert _kernel_sweeps(snap) > 0
        # Every sweep of the solve is accounted for exactly once.
        per_peer = sum(p.relaxations for p in result.report.per_peer)
        assert _kernel_sweeps(snap) == per_peer


def _branches(jobs):
    plan = plan_jobs(jobs)
    ckeys, signatures = resolve_cache_keys(plan)
    return [tasks_for(plan, branch, ckeys, signatures)
            for branch in plan.branches()]


class TestDriverPoolPiggyback:
    def _jobs(self, n_jobs=2):
        from repro.solvers.distributed_richardson import get_problem

        base = get_problem("membrane", N).jacobi_delta()
        deltas = [base * (0.80 + 0.02 * i) for i in range(n_jobs)]
        return expand_matrix(
            ns=[N], n_peers=[1], n_clusters=[1], schemes=["synchronous"],
            deltas=deltas, tol=TOL)

    def test_done_messages_carry_telemetry(self):
        branches = _branches(self._jobs(2))
        pool = DriverPool(1)
        try:
            pool.run_branches(branches)
            snaps = pool.telemetry_snapshots()
            assert snaps[0] is not None
            assert _kernel_sweeps(snaps[0]) > 0
            assert snaps[0]["counters"]["repro_solves_total"
                                        '{scheme="synchronous"}'] == 2
        finally:
            pool.close()

    def test_close_handshake_finalizes_snapshots(self):
        branches = _branches(self._jobs(1))
        pool = DriverPool(1)
        pool.run_branches(branches)
        in_flight = pool.telemetry_snapshots()[0]
        pool.close()
        final = pool.telemetry_snapshots()[0]
        assert final is not None
        # The final snapshot is a superset of the in-flight one.
        assert _kernel_sweeps(final) >= _kernel_sweeps(in_flight)

    def test_crash_keeps_piggybacked_snapshots(self):
        branches = _branches(self._jobs(2))
        pool = DriverPool(1)
        pool.run_branches(branches)
        before = pool.telemetry_snapshots()[0]
        assert before is not None
        # Kill the worker outright: the close handshake can never
        # arrive, but the last piggybacked snapshot must survive.
        pool._procs[0].terminate()
        pool._procs[0].join(timeout=10)
        pool.close(timeout=2.0)
        assert pool.telemetry_snapshots()[0] == before


class TestCampaignAggregation:
    def test_campaign_snapshot_covers_driver_work(self):
        jobs = expand_matrix(ns=[N], n_peers=[1, 2], n_clusters=[1],
                             schemes=["synchronous"], tol=TOL)
        with Campaign(jobs, drivers=2) as campaign:
            outcome = campaign.run()
            live = campaign.telemetry_snapshot()
        after_close = campaign.telemetry_snapshot()
        per_peer = sum(
            sum(p.relaxations for p in r.result.report.per_peer)
            for r in outcome.records)
        # All solver sweeps ran in driver workers; both the live and the
        # post-close snapshot must account for every one of them.
        assert _kernel_sweeps(after_close) == per_peer
        assert _kernel_sweeps(live) <= _kernel_sweeps(after_close)
        solves = sum(v for k, v in after_close["counters"].items()
                     if k.startswith("repro_solves_total"))
        assert solves == outcome.runs

    def test_merge_order_independent(self):
        from repro.telemetry import merge_snapshots

        ctx = ResourceContext(name="order")
        run_job(CampaignJob(n=N, n_peers=1, scheme="synchronous", tol=TOL),
                resources=ctx)
        own = ctx.telemetry.snapshot()
        other = ResourceContext(name="order2")
        run_job(CampaignJob(n=N, n_peers=2, scheme="synchronous", tol=TOL),
                resources=other)
        peer = other.telemetry.snapshot()
        assert merge_snapshots(own, peer) == merge_snapshots(peer, own)
