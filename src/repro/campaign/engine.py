"""The campaign engine: batched solves through shared resources.

A :class:`Campaign` executes a whole matrix of jobs through resources
that live for the campaign rather than for one
:func:`~repro.experiments.harness.run_job` call:

- a private :class:`~repro.resources.ResourceContext` (problem cache,
  telemetry) shared by every in-caller solve;
- a content-addressed :class:`~repro.campaign.cache.ResultCache`, so a
  re-submitted configuration is served without solving at all;
- optional warm starts: a job seeded from the cached/solved solution of
  its nearest-parameter neighbour (the previous delta in a delta
  sweep), with the edge recorded in both the result provenance and the
  cache key.

Campaign solves are bit-identical to cold ``run_job`` calls
(iterates, relaxation counts, simulated time) — the equivalence suite
asserts it.  Warm starts are the one deliberate exception: they change
the starting iterate, which is exactly their point, and are off by
default.

This module holds the static planning (:func:`resolve_cache_keys`,
:func:`tasks_for`), the one execution body (:func:`_execute_chunk`) and
the :class:`Campaign` front end.  *Scheduling* — which branch runs
where and when — is :mod:`repro.campaign.scheduler`, shared with the
campaign service.

Resource-context ownership
--------------------------
- **One context per executing owner.**  Branches run in the caller
  execute against the campaign's own private
  :class:`~repro.resources.ResourceContext`; each driver worker builds
  its own at startup.  The process-wide *default* context belongs to
  plain (non-campaign) call sites — campaign execution never reads or
  writes it, so two campaigns (or a campaign and a direct
  ``run_job``) can run concurrently in one process without
  sharing problem caches.
- **Telemetry registries follow the same ownership.**  Each context
  carries its own :class:`~repro.telemetry.Telemetry` registry; driver
  workers report by shipping *snapshots* up the existing pipes —
  piggybacked on branch completions and finalized on the close
  handshake — which the parent merges
  (:meth:`Campaign.telemetry_snapshot`).  Nothing telemetric is
  ever written into modeled state: no parameter dict, cache key, wire
  payload, or DES clock reads or carries a metric, which is why solves
  are bit-identical with telemetry on or off.
- **What drivers *do* share is results, not resources**: the disk layer
  of a rooted :class:`ResultCache` (content-addressed, atomic-rename
  writes, advisory-flock eviction) is the one cross-driver channel, and
  it is safe precisely because entries are immutable once written.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterable, Optional

import numpy as np

from ..numerics.tolerances import resolve_dtype
from ..numerics.transfer import TRANSFER_VERSION
from ..resources import ResourceContext
from .cache import ResultCache, cache_key
from .jobs import CampaignJob, CampaignPlan, plan_jobs

__all__ = ["Campaign", "CampaignResult", "ExecutedJob",
           "resolve_cache_keys", "tasks_for"]


@dataclasses.dataclass
class ExecutedJob:
    """One submitted job and how its result was obtained."""

    job: CampaignJob
    key: str
    cache_key: str
    result: object  # RunResult
    #: "run" (solved now), "cache" (served from the result cache), or
    #: "duplicate" (same key as an earlier job in this submission).
    source: str
    warm_from: Optional[str] = None
    wall_time: float = 0.0


@dataclasses.dataclass
class CampaignResult:
    """Everything a campaign produced, in submission order."""

    records: list[ExecutedJob]
    plan: CampaignPlan

    @classmethod
    def from_branches(cls, plan: CampaignPlan, branches) -> "CampaignResult":
        """One record per *submitted* job of ``plan``, in submission
        order, out of its finished ``branches``' per-unique-job records;
        a repeated job collapses onto the first one's result."""
        by_key = {record.key: record
                  for branch in branches for record in branch.records}
        records = []
        seen: set[str] = set()
        for job in plan.jobs:
            record = by_key[job.key()]
            if record.key in seen:
                record = dataclasses.replace(record, job=job,
                                             source="duplicate",
                                             wall_time=0.0)
            seen.add(record.key)
            records.append(record)
        return cls(records=records, plan=plan)

    @property
    def n_jobs(self) -> int:
        return len(self.records)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.source == "cache")

    @property
    def runs(self) -> int:
        return sum(1 for r in self.records if r.source == "run")

    @property
    def duplicates(self) -> int:
        return sum(1 for r in self.records if r.source == "duplicate")

    def result_for(self, job: CampaignJob):
        """The result of ``job`` (first record with its key), O(1).

        The index is built lazily on first lookup — sweeps calling this
        per job used to pay a linear scan each time, O(n²) overall.
        """
        index = self.__dict__.get("_key_index")
        if index is None:
            index = {}
            for record in self.records:
                index.setdefault(record.key, record)
            self.__dict__["_key_index"] = index
        try:
            return index[job.key()].result
        except KeyError:
            raise KeyError(f"no record for job {job.label()!r}") from None

    def rows(self) -> list[dict]:
        """Tabular summary (one dict per submitted job)."""
        out = []
        for record in self.records:
            row = record.result.row()
            row["source"] = record.source
            if record.warm_from is not None:
                row["warm_from"] = record.warm_from
            out.append(row)
        return out


# -- static planning helpers --------------------------------------------------------
#
# Cache keys and task tuples are pure functions of a plan: the branch
# scheduler needs the keys before anything runs, for in-flight
# coalescing across plans.


def resolve_cache_keys(
    plan: CampaignPlan,
) -> tuple[dict[str, str], dict[str, dict]]:
    """Cache key + signature per unique job, computed statically.

    The cache must key on the warm seed's *content*, not just the
    predecessor's job identity: the predecessor may itself have
    been warm-started (or not) depending on how this campaign's
    sweep was cut, and its solution differs accordingly.  Chaining
    through the predecessor's cache key makes the edge transitive —
    a truncated or reordered sweep can never hit an entry produced
    from a seed it did not compute.  Because the chain needs only
    the predecessor's *key* (never its result), the whole map is a
    pure function of the plan — which is what lets branches be
    dispatched to drivers before anything has run.

    Ladder edges fold two more facts into the dependent signature:
    the seed's provenance kind (``interpolated@<n_coarse>`` for a
    cross-size edge, ``cast@<dtype>`` for the float32 → float64
    polish) and the transfer-operator version — so a laddered result
    can never collide with a cold one, and a changed interpolation
    scheme misses old cache entries instead of reusing them.
    Non-ladder plans produce byte-identical signatures to what this
    function always produced.
    """
    ckeys: dict[str, str] = {}
    signatures: dict[str, dict] = {}
    for job in plan.order:
        key = job.key()
        warm_from = plan.warm_sources.get(key)
        warm_ckey = ckeys[warm_from] if warm_from is not None else None
        signature = dict(job.signature(), warm_from=warm_ckey)
        edge = plan.warm_edges.get(key)
        if edge is not None and edge.kind == "ladder":
            if edge.n_source != job.n:
                signature["warm_kind"] = f"interpolated@{edge.n_source}"
            else:
                signature["warm_kind"] = f"cast@{edge.dtype_source}"
            signature["transfer"] = TRANSFER_VERSION
        signatures[key] = signature
        ckeys[key] = cache_key(signature)
    return ckeys, signatures


def tasks_for(plan: CampaignPlan, jobs, ckeys, signatures) -> list[tuple]:
    """The ``(job, cache_key, signature, warm_from)`` task tuples of
    ``jobs`` (any subset of the plan — typically one branch)."""
    tasks = []
    for job in jobs:
        key = job.key()
        tasks.append((job, ckeys[key], signatures[key],
                      plan.warm_sources.get(key)))
    return tasks


# -- shared execution core ----------------------------------------------------------
#
# One function executes jobs everywhere, one branch per call: in the
# scheduler's caller or in a driver worker.  Sharing the body (and
# precomputing cache keys/signatures on the planning side) is what
# makes records bit-identical wherever a branch ran.


def _execute_chunk(tasks, *, cache, resources,
                   progress=None) -> list[ExecutedJob]:
    """Run ``tasks`` — ``(job, cache_key, signature, warm_from)``
    tuples, warm sources always preceding their dependents — in order
    against ``resources``.  Returns one :class:`ExecutedJob` per task.
    """
    from ..experiments.harness import run_job

    results: dict[str, ExecutedJob] = {}
    records: list[ExecutedJob] = []
    for job, ckey, signature, warm_from in tasks:
        key = job.key()
        t0 = time.perf_counter()
        result = cache.load(ckey) if cache is not None else None
        source = "cache"
        if result is None:
            source = "run"
            warm_u = warm_label = None
            if warm_from is not None and warm_from in results:
                seed = results[warm_from].result.report.u
                dtype = resolve_dtype(job.dtype)
                if seed.shape[0] != job.n:
                    # Ladder cross-size edge (after planning
                    # validation, the only edge type that may cross
                    # sizes): interpolate the coarse solution onto
                    # this job's grid and project it feasible in the
                    # solve dtype.  The provenance label records the
                    # interpolation so a laddered report is
                    # distinguishable from a plain warm start.
                    from ..numerics.transfer import prolong_iterate
                    from ..solvers.distributed_richardson import (
                        get_problem,
                    )

                    problem = get_problem(job.problem, job.n,
                                          resources=resources)
                    warm_u = prolong_iterate(seed, problem, dtype)
                    warm_label = (f"campaign:{warm_from}:"
                                  f"interpolated@{seed.shape[0]}")
                elif seed.dtype != dtype:
                    # Ladder cross-dtype edge (float32 stage seeding
                    # the float64 polish).
                    warm_u = np.ascontiguousarray(seed, dtype=dtype)
                    warm_label = (f"campaign:{warm_from}:"
                                  f"cast@{seed.dtype.name}")
                else:
                    warm_u = np.ascontiguousarray(seed, dtype=dtype)
                    warm_label = f"campaign:{warm_from}"
            result = run_job(
                job, warm_start_u=warm_u, warm_start_label=warm_label,
                resources=resources,
            )
            if cache is not None:
                cache.store(ckey, result, signature)
        record = ExecutedJob(
            job=job, key=key, cache_key=ckey, result=result,
            source=source, warm_from=warm_from,
            wall_time=time.perf_counter() - t0,
        )
        results[key] = record
        records.append(record)
        if progress is not None:
            progress(record)
    return records


class Campaign:
    """A batch of solve jobs executed through shared resources.

    Parameters
    ----------
    jobs:
        Any iterable of :class:`CampaignJob` (duplicates allowed — they
        collapse onto one run).
    cache:
        A :class:`ResultCache`, or None to always solve.  With
        ``drivers >= 2`` a *rooted* cache is what makes re-runs
        cache-served across driver boundaries (memory-only caches are
        private to each worker process).
    warm_start:
        Chain delta-sweep groups nearest-neighbour and seed each solve
        from its predecessor's solution.
    ladder:
        Plan a mixed-precision multigrid chain in front of every
        eligible float64 job (half-size float32 solve → interpolated
        full-size float32 warm start → float64 polish); see
        :func:`~repro.campaign.jobs.ladder_stages`.  Off by default;
        disabled runs are bit-identical to the historical engine.
    drivers:
        1 (default) executes every branch in this process, in plan
        order.  N ≥ 2 executes independent warm-start branches in N
        driver worker processes (see the module docstring for the
        ownership rules); records are bit-identical for every job.
    resources:
        The :class:`~repro.resources.ResourceContext` in-process
        branches execute against; defaults to a private per-campaign
        context.  Driver workers always build their own.

    A campaign can be ``run()`` repeatedly (its context and driver
    workers persist between runs — that is the point); ``close()``
    releases everything.  Usable as a context manager.
    """

    def __init__(self, jobs: Iterable[CampaignJob], *,
                 cache: Optional[ResultCache] = None,
                 warm_start: bool = False,
                 ladder: bool = False,
                 drivers: int = 1,
                 resources: Optional[ResourceContext] = None):
        from .scheduler import BranchScheduler

        drivers = int(drivers)
        if drivers < 1:
            raise ValueError(f"drivers must be >= 1, got {drivers}")
        self.plan = plan_jobs(jobs, warm_start=warm_start, ladder=ladder)
        self.cache = cache
        self.warm_start = warm_start
        self.ladder = ladder
        self.drivers = drivers
        self.resources = (resources if resources is not None
                          else ResourceContext(name="campaign"))
        self._scheduler = BranchScheduler(
            cache=cache, workers=0 if drivers == 1 else drivers,
            resources=self.resources)
        self._closed = False

    def run(self, progress=None) -> CampaignResult:
        """Execute the plan; returns one record per submitted job.

        ``progress``, when given, is called as ``progress(record)``
        after each unique job resolves (CLI feedback hook): in plan
        order with ``drivers == 1``, in branch-completion order
        otherwise.  If a branch fails, the others still finish and the
        first failure is raised; the campaign stays usable.
        """
        if self._closed:
            raise RuntimeError("campaign is closed")
        scheduler = self._scheduler
        branches = scheduler.admit(self.plan, progress)
        while not all(branch.finished for branch in branches):
            scheduler.dispatch()
            scheduler.collect()
        for branch in branches:
            if branch.error is not None:
                raise branch.error
        return CampaignResult.from_branches(self.plan, branches)

    def cache_stats(self) -> Optional[dict]:
        """Result-cache counters aggregated over this process and every
        driver worker (None without a cache); see
        :meth:`BranchScheduler.cache_stats`."""
        return self._scheduler.cache_stats()

    def telemetry_snapshot(self) -> dict:
        """One mergeable telemetry snapshot for the whole campaign; see
        :meth:`BranchScheduler.telemetry_snapshot`."""
        return self._scheduler.telemetry_snapshot()

    def close(self) -> None:
        """Shut down driver workers.

        Idempotent; after this the campaign cannot run again (build a
        new one — the cache, being external, survives)."""
        if self._closed:
            return
        self._closed = True
        self._scheduler.close()

    def __enter__(self) -> "Campaign":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
