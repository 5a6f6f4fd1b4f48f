"""BranchScheduler, driven directly: no HTTP, no threads.

The scheduler is the one place a plan's branches get executed, so its
contracts are asserted here once — coalescing of shared cache keys,
in-caller serving of memory-resident branches, failure isolation,
ordering with zero workers, the duplicate collapse of the result
builder, and (``TestDeadDriver``) that a SIGKILLed worker costs one
branch and nothing else.
"""

import io
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.campaign import (
    Campaign,
    CampaignJob,
    CampaignResult,
    ResultCache,
    expand_matrix,
    plan_jobs,
)
from repro.campaign.driver import DriverBranchError
from repro.campaign.scheduler import BranchScheduler
from repro.resources import ResourceContext
from repro.service import CampaignService, Submission
from repro.solvers.distributed_richardson import get_problem

N = 8
TOL = 1e-3


def matrix(peers=(1, 2), schemes=("synchronous", "asynchronous")):
    return expand_matrix(ns=[N], n_peers=list(peers),
                         schemes=list(schemes), tol=TOL)


def chain(n_jobs=3):
    """A delta sweep: one warm-start branch under ``warm_start=True``."""
    base = get_problem("membrane", N).jacobi_delta()
    return expand_matrix(
        ns=[N], n_peers=[2], schemes=["synchronous"], tol=TOL,
        deltas=[base * (0.80 + 0.02 * i) for i in range(n_jobs)])


def make(workers, cache=True):
    return BranchScheduler(cache=ResultCache() if cache else None,
                           workers=workers,
                           resources=ResourceContext(name="test"))


def pump(scheduler, branches, deadline=120.0):
    """The loop every owner runs, bounded for the test's sake."""
    stop = time.monotonic() + deadline
    while not all(branch.finished for branch in branches):
        assert time.monotonic() < stop, "scheduler made no progress"
        scheduler.dispatch()
        scheduler.collect(timeout=1.0)


def facts(record):
    report = record.result.report
    return (record.key, record.cache_key, record.warm_from,
            report.u.dtype.name, report.u.tobytes(),
            record.result.relaxations, record.result.elapsed,
            record.result.residual,
            tuple(p.relaxations for p in report.per_peer),
            repr(report.provenance))


@pytest.fixture(params=[0, 2], ids=["in-caller", "two-workers"])
def scheduler(request):
    scheduler = make(request.param)
    yield scheduler
    scheduler.close()


class TestCoalescing:
    def test_shared_key_is_solved_once_and_sharer_served_in_caller(
            self, scheduler):
        jobs = matrix(peers=(1, 2), schemes=("synchronous",))
        first = scheduler.admit(plan_jobs(jobs))
        second = scheduler.admit(plan_jobs(jobs[:1] + matrix(peers=(3,),
                                           schemes=("synchronous",))))
        shared, own = second
        assert shared.owned_keys == ()  # the first plan owns that key
        assert own.owned_keys == tuple(own.cache_keys)
        pump(scheduler, first + second)
        assert [r.source for b in first for r in b.records] == \
            ["run", "run"]
        assert [r.source for r in shared.records] == ["cache"]
        assert shared.driver is None  # served here, not on a worker
        assert [r.source for r in own.records] == ["run"]
        assert scheduler.cache_stats()["stores"] == 3

    def test_memory_resident_branch_never_reaches_a_worker(self):
        scheduler = make(2)
        try:
            plan = plan_jobs(matrix(peers=(1,)))
            first = scheduler.admit(plan)
            pump(scheduler, first)
            dispatched = scheduler.dispatched.value
            assert dispatched == len(first)
            again = scheduler.admit(plan)
            scheduler.dispatch()  # no collect: nothing may be in flight
            assert all(b.status == "done" and b.driver is None
                       for b in again)
            assert scheduler.running == 0
            assert scheduler.dispatched.value == dispatched
            assert scheduler.inline.value == len(again)
        finally:
            scheduler.close()


class TestFailureIsolation:
    def test_raising_branch_fails_only_its_own_plan(self, scheduler,
                                                    monkeypatch, tmp_path):
        from repro.experiments import harness

        real = harness.run_job
        armed = tmp_path / "armed"
        armed.touch()

        def run_job(job, **kwargs):
            if job.n_peers == 3 and armed.exists():
                raise ValueError("boom")
            return real(job, **kwargs)

        # Driver workers fork at first dispatch, after this patch.
        monkeypatch.setattr(harness, "run_job", run_job)
        bad_jobs = matrix(peers=(3,), schemes=("synchronous",))
        good = scheduler.admit(plan_jobs(matrix(peers=(1, 2))))
        bad = scheduler.admit(plan_jobs(bad_jobs))
        pump(scheduler, good + bad)
        assert [b.status for b in good] == ["done"] * len(good)
        assert [b.status for b in bad] == ["failed"]
        assert "boom" in str(bad[0].error)
        assert scheduler.failed.value == 1
        # The failed branch released its claim: a resubmission runs.
        armed.unlink()
        retry = scheduler.admit(plan_jobs(bad_jobs))
        pump(scheduler, retry)
        assert [r.source for r in retry[0].records] == ["run"]


class TestLifecycle:
    def test_close_fails_what_never_finished(self):
        scheduler = make(0)
        branches = scheduler.admit(plan_jobs(matrix(peers=(1,))))
        scheduler.close()
        assert [b.status for b in branches] == ["failed"] * len(branches)
        assert all("closed" in str(b.error) for b in branches)
        assert scheduler.queue == [] and scheduler._owner == {}
        scheduler.close()  # idempotent

    def test_interrupt_in_the_caller_leaves_a_usable_scheduler(self):
        """A KeyboardInterrupt out of an in-caller branch propagates,
        but fails that branch and releases its claims on the way."""
        scheduler = make(0)
        plan = plan_jobs(matrix(peers=(1, 2), schemes=("synchronous",)))

        def interrupt(_record):
            raise KeyboardInterrupt

        first = scheduler.admit(plan, interrupt)
        with pytest.raises(KeyboardInterrupt):
            scheduler.dispatch()
        assert [b.status for b in first] == ["failed", "queued"]
        again = scheduler.admit(plan)
        first[1].progress = None
        scheduler.dispatch()
        assert [b.status for b in first + again] == \
            ["failed", "done", "done", "done"]
        assert [r.source for b in again for r in b.records] == \
            ["cache", "cache"]
        scheduler.close()


class TestOrderAndRecords:
    def test_zero_workers_progress_in_plan_order(self):
        scheduler = make(0, cache=False)
        plan = plan_jobs(matrix() + chain(), warm_start=True)
        seen = []
        branches = scheduler.admit(plan, seen.append)
        scheduler.dispatch()  # one call runs everything in the caller
        assert all(b.status == "done" for b in branches)
        assert [r.key for r in seen] == [j.key() for j in plan.order]
        scheduler.close()

    def test_duplicate_collapse_matches_campaign_run(self):
        jobs = matrix(peers=(1, 2), schemes=("synchronous",))
        jobs = jobs + jobs[:1] + jobs
        scheduler = make(0, cache=False)
        plan = plan_jobs(jobs)
        branches = scheduler.admit(plan)
        scheduler.dispatch()
        direct = CampaignResult.from_branches(plan, branches)
        scheduler.close()
        with Campaign(jobs) as campaign:
            via_campaign = campaign.run()
        assert [r.source for r in direct.records] == \
            ["run", "run", "duplicate", "duplicate", "duplicate"]
        assert [r.source for r in direct.records] == \
            [r.source for r in via_campaign.records]
        assert [r.job for r in direct.records] == jobs
        assert [facts(r) for r in direct.records] == \
            [facts(r) for r in via_campaign.records]
        assert all(r.wall_time == 0.0 for r in direct.records[2:])
        assert direct.rows() == via_campaign.rows()


def wait_finished(service, cid, deadline=240.0):
    stop = time.monotonic() + deadline
    while service.status(cid)["status"] not in ("done", "failed"):
        assert time.monotonic() < stop, f"campaign {cid} never finished"
        time.sleep(0.01)
    return service.status(cid)


class TestBitIdentityAcrossFrontEnds:
    """One matrix (singletons, a warm chain, a ladder target) through
    every way of running a plan; all must agree to the last bit."""

    @staticmethod
    def jobs():
        return matrix() + chain() + [
            CampaignJob(n=12, n_peers=1, scheme="synchronous", tol=TOL)]

    @staticmethod
    def via_campaign(jobs, drivers):
        with Campaign(jobs, warm_start=True, ladder=True,
                      drivers=drivers) as campaign:
            return [
                (r.key, r.cache_key, r.warm_from,
                 r.result.report.u.dtype.name,
                 r.result.report.u.tobytes(), r.result.row()["time_s"],
                 r.result.row()["relaxations"],
                 r.result.report.provenance)
                for r in campaign.run().records]

    @staticmethod
    def via_daemon(jobs, drivers):
        service = CampaignService(drivers=drivers, max_queue=32)
        try:
            cid = service.submit(Submission(
                jobs=tuple(jobs), warm_start=True, ladder=True))
            assert wait_finished(service, cid)["status"] == "done"
            out = []
            for entry in service.results(cid)["jobs"]:
                u = np.load(io.BytesIO(
                    service.iterate_bytes(cid, entry["cache_key"])))
                out.append((entry["key"], entry["cache_key"],
                            entry["warm_from"], u.dtype.name, u.tobytes(),
                            entry["row"]["time_s"],
                            entry["row"]["relaxations"],
                            entry["provenance"]))
            return out
        finally:
            service.close()

    @pytest.fixture(scope="class")
    def reference(self):
        return self.via_campaign(self.jobs(), drivers=1)

    @pytest.mark.parametrize("front_end, drivers", [
        ("via_campaign", 2), ("via_daemon", 1), ("via_daemon", 2)])
    def test_matches_in_caller_engine(self, reference, front_end, drivers):
        assert {entry[2] for entry in reference} != {None}  # warm edges
        assert getattr(self, front_end)(self.jobs(), drivers) == reference


def kill_first_busy_driver(pool, deadline=60.0):
    """SIGKILL driver 0 (the one the first branch goes to) mid-branch."""
    stop = time.monotonic() + deadline
    while not pool.busy:
        assert time.monotonic() < stop
        time.sleep(0.001)
    os.kill(pool._procs[0].pid, signal.SIGKILL)


#: Long enough (~0.6 s) to be killed under, short enough to re-solve.
SLOW = CampaignJob(n=32, n_peers=2, scheme="synchronous", tol=1e-8)
QUICK = CampaignJob(n=N, n_peers=1, tol=TOL)


class TestDeadDriver:
    """A dead driver costs one ticket, not the pool or the service."""

    def test_pool_keeps_same_drain_completions_and_respawns(self):
        from repro.campaign.driver import DriverPool
        from repro.campaign.engine import resolve_cache_keys, tasks_for

        plan = plan_jobs([SLOW, QUICK])
        ckeys, sigs = resolve_cache_keys(plan)
        slow, quick = (tasks_for(plan, branch, ckeys, sigs)
                       for branch in plan.branches())
        pool = DriverPool(2)
        try:
            doomed, worker = pool.submit(slow)
            survivor, other = pool.submit(quick)
            # Let the quick branch finish first, so both pipes are
            # ready in the one drain that sees the death.
            assert pool._conns[other].poll(60)
            dead = pool._procs[worker]
            os.kill(dead.pid, signal.SIGKILL)
            dead.join(timeout=10)
            assert not dead.is_alive()
            with pytest.raises(DriverBranchError, match="died") as err:
                pool.wait(timeout=10)
            assert err.value.ticket == doomed
            [(ticket, records)] = pool.wait(timeout=10)
            assert ticket == survivor and len(records) == 1
            # The slot has a fresh worker and takes work again.
            assert pool.idle == 2
            assert pool._procs[worker] is not dead
            [records] = pool.run_branches([quick])
            assert records[0].source == "run"
        finally:
            pool.close()

    def test_submit_replaces_a_worker_that_died_idle(self):
        from repro.campaign.driver import DriverPool
        from repro.campaign.engine import resolve_cache_keys, tasks_for

        plan = plan_jobs([QUICK])
        tasks = tasks_for(plan, plan.order, *resolve_cache_keys(plan))
        pool = DriverPool(1)
        try:
            dead = pool._procs[0]
            os.kill(dead.pid, signal.SIGKILL)
            dead.join(timeout=10)
            assert not dead.is_alive()
            [records] = pool.run_branches([tasks])
            assert records[0].source == "run"
            assert pool._procs[0] is not dead
        finally:
            pool.close()

    def test_campaign_run_raises_naming_the_branch_then_recovers(self):
        with Campaign([SLOW, QUICK], cache=ResultCache(),
                      drivers=2) as campaign:
            pool = campaign._scheduler._ensure_pool()
            killer = threading.Thread(target=kill_first_busy_driver,
                                      args=(pool,))
            killer.start()
            with pytest.raises(DriverBranchError,
                               match=r"(?s)branch ticket 0.*died"):
                campaign.run()
            killer.join(timeout=60)
            assert not killer.is_alive()
            second = campaign.run()
        # The sibling's result was kept; only the killed branch re-runs.
        assert [r.source for r in second.records] == ["run", "cache"]
        assert second.records[0].result.residual <= 1e-6

    def test_daemon_fails_one_campaign_and_keeps_serving(self):
        service = CampaignService(drivers=1, max_queue=8)
        try:
            victim = service.submit(Submission(jobs=(SLOW,)))
            sibling = service.submit(Submission(jobs=(QUICK,)))
            stop = time.monotonic() + 60
            while service._scheduler.pool is None:
                assert time.monotonic() < stop
                time.sleep(0.001)
            kill_first_busy_driver(service._scheduler.pool)
            status = wait_finished(service, victim)
            assert status["status"] == "failed"
            assert "died" in status["branches"][0]["error"]
            assert wait_finished(service, sibling)["status"] == "done"
            # Not a permanent 409: the same matrix is admitted, solved.
            assert service.stats()["draining"] is False
            again = service.submit(Submission(jobs=(SLOW,)))
            assert wait_finished(service, again)["status"] == "done"
            assert service.results(again)["summary"]["solved"] == 1
            assert service.stats()["service"]["branches_failed"] == 1
        finally:
            service.close()
