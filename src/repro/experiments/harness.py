"""Experiment harness: one configuration = one measured run.

Reproduces the paper's methodology: a job fixes the topology (α peers, 1
or 2 clusters, 100 ms WAN) and application parameters (problem size n,
scheme), as the paper's OEDL description files do; the harness builds
that testbed, runs the obstacle application through P2PDC, and reports
time / relaxations / speedup / efficiency — the four panels of Figures
5 and 6.

Scaled runs
-----------
The paper's sizes (96³, 144³) converge in thousands of relaxations; the
default harness sizes are smaller so the suite is laptop-friendly.  A
naive scale-down would distort the *compute-to-communication ratio*
(smaller planes are cheap to relax but the 100 ms WAN latency does not
shrink), so :func:`scaled_spec` slows the simulated CPUs by (n/n_paper)³
and the links by (n/n_paper)² — per-sweep compute, per-plane
serialization and the fixed latency then keep the same proportions as a
full-size run on the real testbed, and the *shape* of every curve is
preserved.  Set ``REPRO_FULL=1`` to run the paper's actual sizes.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Optional


from ..core.environment import P2PDC
from ..p2psap.context import Scheme
from ..resources import resolve_context
from ..simnet.kernel import Simulator
from ..simnet.topology import NICTA_SPEC, TestbedSpec, nicta_testbed
from ..solvers.distributed_richardson import (
    DistributedSolveReport,
    ObstacleApplication,
)

__all__ = [
    "RunResult",
    "full_mode",
    "scaled_spec",
    "run_job",
    "DEFAULT_TOL",
]

#: Tolerance used throughout the evaluation harness.
DEFAULT_TOL = 1e-4


def full_mode() -> bool:
    """Whether to run the paper's actual problem sizes."""
    return os.environ.get("REPRO_FULL", "") not in ("", "0", "false")


def scaled_spec(n: int, n_paper: int, base: TestbedSpec = NICTA_SPEC) -> TestbedSpec:
    """Testbed spec preserving the full-size compute:comm ratios at size n.

    CPU ∝ n³ (per-sweep work), bandwidth ∝ n² (per-plane bytes), latency
    unchanged (physics).  At n == n_paper this is the NICTA spec itself.
    """
    if n > n_paper:
        raise ValueError(f"scaled size {n} exceeds paper size {n_paper}")
    ratio = n / n_paper
    return dataclasses.replace(
        base,
        cpu_hz=base.cpu_hz * ratio**3,
        ethernet_bps=base.ethernet_bps * ratio**2,
    )


@dataclasses.dataclass
class RunResult:
    """One measured configuration (one point on a Figure 5/6 panel)."""

    n: int
    n_peers: int
    n_clusters: int
    scheme: Scheme
    elapsed: float
    relaxations: float
    residual: float
    report: DistributedSolveReport
    max_wait_time: float

    def speedup(self, sequential_time: float) -> float:
        """T(1) / T(α) against the single-peer run."""
        if self.elapsed <= 0:
            raise ValueError("non-positive elapsed time")
        return sequential_time / self.elapsed

    def efficiency(self, sequential_time: float) -> float:
        """speedup / α."""
        return self.speedup(sequential_time) / self.n_peers

    def row(self, sequential_time: Optional[float] = None) -> dict[str, Any]:
        out = {
            "n": self.n,
            "peers": self.n_peers,
            "clusters": self.n_clusters,
            "scheme": self.scheme.value,
            "time_s": round(self.elapsed, 4),
            "relaxations": round(self.relaxations, 1),
            "residual": float(self.residual),
        }
        if sequential_time is not None:
            out["speedup"] = round(self.speedup(sequential_time), 3)
            out["efficiency"] = round(self.efficiency(sequential_time), 3)
        return out


def run_job(
    job,
    *,
    timeout: float = 1e7,
    warm_start_u=None,
    warm_start_label: Optional[str] = None,
    resources=None,
) -> RunResult:
    """Execute one :class:`~repro.campaign.jobs.CampaignJob` end to end.

    This is the repo's *single* execution path: the figure and table
    harnesses, the campaign engine, the CLI, and the campaign-service
    HTTP schema all normalize their inputs into a ``CampaignJob`` and
    land here — one params plumbing for every front end.

    The keyword-only extras are per-*call* state, deliberately not job
    identity: an optional full-iterate warm start (``warm_start_u``
    must carry the job's dtype; ``warm_start_label`` names its source
    in the report provenance — the campaign engine keys the warm edge
    into the *cache* signature separately), the simulated-time
    ``timeout``, and ``resources`` — the explicit
    :class:`~repro.resources.ResourceContext` the solve's pooled
    resources (problem instances, telemetry)
    resolve against.  ``resources=None`` means the process default,
    which is bit-identical to the historical behaviour.  It is threaded
    through the deployment (``P2PDC`` → executors → ``TaskContext``),
    never through ``params``: params are modeled wire payload, and
    adding a key would change every SUBTASK's simulated dispatch cost.
    """
    scheme = Scheme.parse(job.scheme)
    n, n_peers = job.n, job.n_peers
    spec = NICTA_SPEC if job.n_paper is None or n >= job.n_paper \
        else scaled_spec(n, job.n_paper)
    sim = Simulator()
    net = nicta_testbed(sim, n_peers, n_clusters=job.n_clusters, spec=spec,
                        seed=job.seed)
    env = P2PDC(sim, net, resources=resources)
    env.register_everywhere(ObstacleApplication(resources=resources))
    params = {"n": n, "tol": job.tol, "problem": job.problem}
    # Canonical params: a default value never enters the dict, so e.g.
    # dtype="float64" and dtype=None build byte-identical SUBTASK
    # payloads — the modeled dispatch cost (and hence simulated time)
    # cannot depend on *how* a caller spelled the default.  The job's
    # __post_init__ already normalized scheme/dtype/delta, and the
    # campaign engine's pooled runs rely on this to stay bit-identical
    # to cold calls.
    if job.dtype != "float64":
        params["dtype"] = job.dtype
    if job.delta is not None:
        params["delta"] = job.delta
    if warm_start_u is not None:
        params["warm_start_u"] = warm_start_u
        if warm_start_label is not None:
            params["warm_start_label"] = warm_start_label
    if job.extra:
        params.update(job.extra_params)
    # Telemetry rides the same out-of-band channel as ``resources``: a
    # solve span plus post-run DES counter export.  Nothing here touches
    # params or the simulator, so instrumented runs stay bit-identical.
    tele = resolve_context(resources).telemetry
    with tele.span("solve", n=n, peers=n_peers, clusters=job.n_clusters,
                   scheme=scheme.value):
        run = env.run_to_completion(
            "obstacle", params=params, n_peers=n_peers, scheme=scheme,
            timeout=timeout,
        )
    if tele.enabled:
        tele.counter("repro_solves_total", scheme=scheme.value).inc()
        tele.counter("repro_des_events_total").inc(sim.events_processed)
        tele.counter("repro_des_put_wakeups_total").inc(sim.put_wakeups)
        tele.gauge("repro_des_queue_depth_max").set_max(sim.max_queue_depth)
    report: DistributedSolveReport = run.output
    return RunResult(
        n=n,
        n_peers=n_peers,
        n_clusters=job.n_clusters,
        scheme=scheme,
        elapsed=run.elapsed,
        relaxations=report.relaxations,
        residual=report.residual,
        report=report,
        max_wait_time=report.max_wait_time,
    )
