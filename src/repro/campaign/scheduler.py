"""The one branch scheduler behind the engine, the CLI and the daemon.

Architecture note.  A :class:`~repro.campaign.jobs.CampaignPlan` reaches
the solvers through exactly one path, whichever front end admitted it:
:meth:`BranchScheduler.admit` cuts the plan into its warm-start branches
and claims their (statically known) cache keys, :meth:`~BranchScheduler.
dispatch` starts every branch that may start — in the caller when the
scheduler has no worker processes or the branch is already resident in
the cache's memory layer, on an idle :class:`~repro.campaign.driver.
DriverPool` worker otherwise — and :meth:`~BranchScheduler.collect`
waits on the workers.  ``Campaign.run`` pumps those calls in the caller
until its own branches are done (``drivers=1`` is the zero-worker case);
``CampaignService`` pumps them from its scheduler thread for every
admitted campaign at once.  Branches only ever run whole through
:func:`~repro.campaign.engine._execute_chunk`, so records are
bit-identical wherever and in whatever order they ran.

The scheduler has no lock and no thread.  ``collect`` only talks to the
worker pipes and parks what it received; every change to scheduling
state (branch status, key ownership, the cache's memory layer) happens
in ``admit`` and ``dispatch``.  An owner with several threads therefore
locks around ``admit``, ``dispatch`` and its own reads, keeps
``dispatch``/``collect`` on one thread, and may block in ``collect``
unlocked.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..resources import ResourceContext
from ..telemetry import merge_snapshots
from .cache import ResultCache
from .driver import DriverBranchError, DriverPool, cache_spec
from .engine import (
    ExecutedJob,
    _execute_chunk,
    resolve_cache_keys,
    tasks_for,
)
from .jobs import CampaignPlan

__all__ = ["Branch", "BranchScheduler"]


class Branch:
    """One schedulable unit: a whole warm-start chain of one plan."""

    __slots__ = ("tasks", "status", "records", "driver", "error",
                 "progress", "owned_keys", "enqueued_at")

    def __init__(self, tasks: list, progress: Optional[Callable]):
        self.tasks = tasks
        self.status = "queued"  # queued | running | done | failed
        self.records: Optional[list[ExecutedJob]] = None
        #: Worker index while/after running on a driver, else None.
        self.driver: Optional[int] = None
        #: The exception that failed this branch.
        self.error: Optional[BaseException] = None
        self.progress = progress
        #: Cache keys this branch claimed at admission (first claimant
        #: wins); released when the branch finishes or fails.
        self.owned_keys: tuple[str, ...] = ()
        self.enqueued_at = time.perf_counter()

    @property
    def cache_keys(self) -> list[str]:
        return [ckey for _job, ckey, _sig, _warm in self.tasks]

    @property
    def finished(self) -> bool:
        return self.status in ("done", "failed")


class BranchScheduler:
    """Executes admitted plans branch by branch (see the module note).

    ``workers`` is the number of driver processes; 0 runs every branch
    in the caller.  ``resources`` is the context in-caller branches
    execute against (driver workers build their own).  The pool is built
    on first need, so a scheduler that only ever serves cached branches
    never forks.
    """

    def __init__(self, *, cache: Optional[ResultCache], workers: int,
                 resources: ResourceContext):
        self.cache = cache
        self.workers = int(workers)
        self.resources = resources
        self.pool: Optional[DriverPool] = None
        #: Admitted branches not yet started, in admission order.
        self.queue: list[Branch] = []
        self._owner: dict[str, Branch] = {}
        self._tickets: dict[int, Branch] = {}
        self._arrived: list[tuple[Branch, object]] = []
        tele = resources.telemetry
        self.inline = tele.counter("repro_service_branches_total",
                                   mode="inline")
        self.dispatched = tele.counter("repro_service_branches_total",
                                       mode="driver")
        self.failed = tele.counter("repro_service_branches_failed_total")
        self.queue_wait = tele.histogram("repro_branch_queue_wait_seconds")

    @property
    def running(self) -> int:
        """Branches currently on a driver worker."""
        return len(self._tickets)

    # -- the three calls ---------------------------------------------------------

    def admit(self, plan: CampaignPlan,
              progress: Optional[Callable] = None) -> list[Branch]:
        """Queue every branch of ``plan``; returns them in plan order.

        ``progress(record)`` is called as each unique job resolves, on
        the thread that runs :meth:`dispatch`.  The first branch to
        claim a cache key owns it; a branch sharing a key with
        unfinished work waits for the owner and is then cache-served, so
        a duplicate — even one racing the original — never re-solves.
        """
        ckeys, signatures = resolve_cache_keys(plan)
        branches = []
        for jobs in plan.branches():
            branch = Branch(tasks_for(plan, jobs, ckeys, signatures),
                            progress)
            branch.owned_keys = tuple(
                ckey for ckey in branch.cache_keys
                if self._owner.setdefault(ckey, branch) is branch)
            branches.append(branch)
        self.queue.extend(branches)
        return branches

    def dispatch(self) -> None:
        """Book what :meth:`collect` received, then start every queued
        branch that may start, in admission order (skipping over ones
        that must wait, so a free driver is never held up by them)."""
        self._book_arrived()
        for branch in list(self.queue):
            if any(self._owner.get(ckey, branch) is not branch
                   for ckey in branch.cache_keys):
                continue
            # Whole branch resident in this process's memory layer:
            # serve it here, a driver's private memory may not have it.
            # A partially cached branch still goes to a driver whole — a
            # mid-chain solve needs its predecessor's record as seed.
            in_caller = self.workers == 0 or (
                self.cache is not None and all(
                    self.cache.has_memory(ckey)
                    for ckey in branch.cache_keys))
            if not in_caller:
                if self._ensure_pool().idle == 0:
                    continue
                ticket, branch.driver = self.pool.submit(branch.tasks)
                self._tickets[ticket] = branch
            self.queue.remove(branch)
            self.queue_wait.observe(
                time.perf_counter() - branch.enqueued_at)
            branch.status = "running"
            if in_caller:
                self.inline.inc()
                self._run_in_caller(branch)
            else:
                self.dispatched.inc()

    def wake(self) -> None:
        """Cut short a :meth:`collect` blocked in another thread: the
        owner admitted work an idle worker could start."""
        if self.pool is not None:
            self.pool.wake()

    def collect(self, timeout: Optional[float] = None) -> None:
        """Wait up to ``timeout`` seconds (None: until one arrives, or
        a :meth:`wake`) for driver completions.  Touches only the worker
        pipes; the next :meth:`dispatch` books what arrived."""
        if not self._tickets:
            return
        try:
            for ticket, records in self.pool.wait(timeout):
                self._arrived.append((self._tickets.pop(ticket), records))
        except DriverBranchError as exc:
            # One branch raised, or its worker died: that costs this
            # ticket only; the pool has already put the slot back.
            self._arrived.append((self._tickets.pop(exc.ticket), exc))

    # -- internals ---------------------------------------------------------------

    def _ensure_pool(self) -> DriverPool:
        if self.pool is None:
            self.pool = DriverPool(self.workers,
                                   cache_spec=cache_spec(self.cache))
        return self.pool

    def _run_in_caller(self, branch: Branch) -> None:
        try:
            records = _execute_chunk(
                branch.tasks, cache=self.cache, resources=self.resources,
                progress=branch.progress)
        except BaseException as exc:
            self._settle(branch, exc)
            if not isinstance(exc, Exception):
                raise
        else:
            self._settle(branch, records)

    def _book_arrived(self) -> None:
        arrived, self._arrived = self._arrived, []
        for branch, outcome in arrived:
            self._settle(branch, outcome)
            for record in branch.records or ():
                # What a worker computed goes into this process's memory
                # layer: deferred sharers, later runs of the same plan
                # and result readers find it without touching disk.
                if self.cache is not None:
                    self.cache.remember(record.cache_key, record.result)
                if branch.progress is not None:
                    branch.progress(record)

    def _settle(self, branch: Branch, outcome) -> None:
        """Finish ``branch`` with its records, or fail it with the
        exception, and release its key claims either way."""
        if isinstance(outcome, BaseException):
            branch.status = "failed"
            branch.error = outcome
            self.failed.inc()
        else:
            branch.records = outcome
            branch.status = "done"
        for ckey in branch.owned_keys:
            del self._owner[ckey]
        branch.owned_keys = ()

    # -- aggregate views ---------------------------------------------------------

    def cache_stats(self) -> Optional[dict]:
        """Result-cache counters summed over this process's cache and
        the latest snapshot of every driver worker (each worker rebuilds
        its own instance from the spec), with ``hit_rate`` recomputed
        over the union; None without a cache."""
        if self.cache is None:
            return None
        stats = self.cache.stats()
        snapshots = self.pool.cache_stats() if self.pool is not None else []
        for snapshot in filter(None, snapshots):
            for counter in ("hits", "misses", "stores", "evictions",
                            "lock_wait_seconds"):
                stats[counter] += snapshot.get(counter, 0)
        lookups = stats["hits"] + stats["misses"]
        stats["hit_rate"] = stats["hits"] / lookups if lookups else 0.0
        return stats

    def telemetry_snapshot(self) -> dict:
        """One mergeable snapshot: the in-caller context, this process's
        cache registry, and the latest snapshot of each driver worker
        (the final close-handshake ones after :meth:`close`).  The merge
        is associative and commutative, so completion order is moot."""
        parts = [self.resources.telemetry.snapshot()]
        if self.cache is not None:
            parts.append(self.cache.telemetry_snapshot())
        if self.pool is not None:
            parts.extend(snap for snap in self.pool.telemetry_snapshots()
                         if snap is not None)
        return merge_snapshots(*parts)

    def close(self, error: Optional[BaseException] = None) -> None:
        """Fail whatever is still unfinished (with ``error``) and shut
        the workers down.  Idempotent; the closed pool stays readable
        for the aggregate views."""
        error = error or RuntimeError(
            "scheduler closed before this branch finished")
        self._book_arrived()
        unfinished = self.queue + list(self._tickets.values())
        self.queue = []
        self._tickets.clear()
        for branch in unfinished:
            self._settle(branch, error)
        if self.pool is not None:
            self.pool.close()
