"""Batched sweep-campaign engine: many solves, shared setup.

The paper's evaluation is a *campaign* — dozens of near-identical
configurations varying only ``(n, α, scheme, clusters)`` — yet a plain
harness loop re-solves every configuration from scratch.  This package
is the batching layer between "one solve at a time" and a solve
service:

:mod:`~repro.campaign.jobs`
    :class:`CampaignJob` (one configuration as hashable data),
    :func:`expand_matrix` (the cartesian grid), :func:`plan_jobs`
    (deduplicated DAG with optional warm-start edges);
:mod:`~repro.campaign.cache`
    :class:`ResultCache` — content-addressed solve results, in memory
    and optionally on disk;
:mod:`~repro.campaign.engine`
    :class:`Campaign` — executes a plan through one private resource
    context, the cache, and optional warm starts;
:mod:`~repro.campaign.scheduler`
    :class:`BranchScheduler` — the one way a plan's branches get
    executed, for ``Campaign.run`` and the campaign service alike;
:mod:`~repro.campaign.driver`
    :class:`DriverPool` — the scheduler's worker processes, each
    executing whole warm-start branches against its own
    :class:`~repro.resources.ResourceContext`.

Entry points: the programmatic :class:`Campaign` API, the
``python -m repro.experiments campaign`` CLI, and the
``benchmarks/test_bench_campaign.py`` micro-benchmark recording
``campaign_cache_service`` in ``BENCH_micro.json``.
"""

from ..resources import ResourceContext
from .cache import CACHE_SCHEMA, ResultCache, cache_key
from .driver import DriverPool
from .engine import Campaign, CampaignResult, ExecutedJob
from .jobs import (
    CampaignJob,
    CampaignPlan,
    WarmEdge,
    expand_matrix,
    ladder_stages,
    plan_jobs,
)

__all__ = [
    "CACHE_SCHEMA",
    "Campaign",
    "CampaignJob",
    "CampaignPlan",
    "CampaignResult",
    "DriverPool",
    "ExecutedJob",
    "ResourceContext",
    "ResultCache",
    "WarmEdge",
    "cache_key",
    "expand_matrix",
    "ladder_stages",
    "plan_jobs",
]
