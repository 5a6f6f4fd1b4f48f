"""The five end-to-end workloads.

Each workload is a fixed list of *steps*; one execution of the list is a
*pass*.  A step is the unit whose host wall time is summed into ``wall_s``;
it performs one or more user-visible *operations* (a solve, a stream cell,
a ``Campaign.run``, a daemon round trip) whose latencies feed
``op_p50_ms``.  Steps check their own outputs and report what went wrong as
failed operations; deterministic outputs are returned as ``facts`` so the
harness can require every later pass — and the traced pass — to reproduce
the first one bit for bit.

Only request types and front doors are used (``CampaignJob``, ``run_job``,
``Campaign``, ``ResultCache``, ``CampaignService``/``ServiceDaemon``,
``ServiceClient``, ``P2PSAP``, ``Simulator``) plus ``projected_richardson``
for the reference solutions — nothing the ROADMAP slates for
keep-or-delete — so the simplification PRs this benchmark steers cannot
break it.  Functions the tracer may wrap are reached through their module
(``harness.run_job``), never through a name imported here, because the
tracer re-binds names in ``repro.*`` modules only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import random
import shutil
import tempfile
import threading
import time
from time import perf_counter

import numpy as np

#: A solve must stop within this sup-norm distance of the tight sequential
#: reference: ``ERR_FACTOR * tol * n**2``.  The distributed solvers stop on
#: a max-step criterion, which leaves an error proportional to
#: tol / (1 - contraction) ~ tol * n**2; measured errors are 0.06-0.10 of
#: tol * n**2 across sizes, schemes and relaxation steps.
ERR_FACTOR = 0.25
RESIDUAL_BOUND = 1e-3
TOL = 1e-4
#: Tolerance of the sequential reference per grid size (64**3 at 1e-8
#: would double the set-up time; 1e-5 is within 0.003 of it).
REFERENCE_TOL = {64: 1e-5}
N_PAPER = 96


@dataclasses.dataclass
class StepResult:
    """What one step did, for the harness to aggregate."""

    #: Host seconds the program spent on the step (checks excluded).
    wall: float
    #: Latency of each operation the step performed, in seconds.
    ops: list
    #: Units of work done (point updates, messages, jobs).
    work: float
    attempted: int
    #: One message per failed operation.
    failures: list
    #: Deterministic outputs; must repeat exactly across passes.
    facts: dict
    #: Counts and simulated statistics for the per-layer report.
    stats: dict


def digest(u):
    """Content hash of an iterate, dtype and shape included."""
    h = hashlib.sha256()
    h.update(f"{u.dtype.name}{u.shape}".encode())
    h.update(np.ascontiguousarray(u).tobytes())
    return h.hexdigest()[:20]


def _add(stats, **values):
    for key, value in values.items():
        stats[key] = stats.get(key, 0) + value


class Workload:
    """Base class: set-up, a fixed step list, tear-down."""

    name = ""
    #: What ``work_per_s`` counts on this workload.
    work_unit = ""

    def __init__(self, seed, scale, workdir, tracer, inject=None):
        self.seed = seed
        self.tiny = scale == "tiny"
        self.workdir = workdir
        self.tracer = tracer
        self.inject = inject
        self.references = {}

    # -- overridden per workload -------------------------------------------

    def setup(self):
        """Everything a user pays before the first timed pass."""

    def step_names(self):
        raise NotImplementedError

    def run_step(self, name, pass_index):
        raise NotImplementedError

    def after_pass(self, pass_index):
        """Untimed work between passes — sampled cross-checks, cleaning
        up; returns (operations attempted, failure messages)."""
        return 0, []

    def teardown(self):
        """Stop everything set-up started."""

    def registries(self):
        """Telemetry snapshots of the registries that live for the whole
        run: the default context ``run_job`` solves against."""
        from repro.resources import default_context

        return [default_context().telemetry.snapshot()]

    # -- shared helpers ----------------------------------------------------

    def reference(self, n):
        """Tight sequential solution of the n**3 membrane problem."""
        if n not in self.references:
            from repro.numerics import membrane_problem, projected_richardson

            self.references[n] = projected_richardson(
                membrane_problem(n), tol=REFERENCE_TOL.get(n, 1e-8)).u
        return self.references[n]

    def check_iterate(self, label, u, residual, n, corrupt=False):
        """Failure messages for one solution (empty when it is good)."""
        if corrupt:
            u = u.copy()
            u.flat[u.size // 2] += 1.0
        failures = []
        if not residual < RESIDUAL_BOUND:
            failures.append(f"{label}: residual {residual:.3g} >= "
                            f"{RESIDUAL_BOUND}")
        error = float(np.abs(np.asarray(u, dtype=np.float64)
                             - self.reference(n)).max())
        bound = ERR_FACTOR * TOL * n * n
        if not error < bound:
            failures.append(f"{label}: {error:.3g} from the reference, "
                            f"bound {bound:.3g}")
        return failures, digest(u)

    def temp_dir(self, prefix):
        return tempfile.mkdtemp(prefix=prefix, dir=self.workdir)


def solve_stats(result):
    """Per-layer raw material from one ``RunResult``."""
    n = result.n
    points = sum(p.relaxations * (p.hi - p.lo) * n * n
                 for p in result.report.per_peer)
    return {
        "point_updates": points,
        "bytes_moved_computed": points * 2 * result.report.u.dtype.itemsize,
        "relaxations": sum(p.relaxations for p in result.report.per_peer),
        "wait_sim_s": result.max_wait_time,
        "sim_time_s": result.elapsed,
        "solves": 1,
    }


class _SolveList(Workload):
    """A pass is a list of cold ``run_job`` solves, one step each."""

    work_unit = "point updates"

    def jobs(self):
        raise NotImplementedError

    def warmup_jobs(self):
        raise NotImplementedError

    def setup(self):
        from repro.experiments import harness

        self._jobs = self.jobs()
        order = list(range(len(self._jobs)))
        random.Random(self.seed).shuffle(order)
        self._names = [f"solve[{i:02d}]" for i in order]
        self._by_name = {f"solve[{i:02d}]": self._jobs[i] for i in order}
        for n in sorted({job.n for job in self._jobs}):
            self.reference(n)
        for job in self.warmup_jobs():
            harness.run_job(job)

    def step_names(self):
        return self._names

    def run_step(self, name, pass_index):
        from repro.experiments import harness

        job = self._by_name[name]
        with self.tracer.span(f"step:{name}"):
            start = perf_counter()
            result = harness.run_job(job)
            elapsed = perf_counter() - start
        corrupt = (self.inject == "corrupt-iterate" and pass_index == 1
                   and name == self._names[0])
        failures, dig = self.check_iterate(
            f"{name} {job.label()}", result.report.u, result.residual,
            job.n, corrupt=corrupt)
        stats = solve_stats(result)
        return StepResult(
            wall=elapsed, ops=[elapsed], work=stats["point_updates"],
            attempted=1,
            failures=failures,
            facts={"digest": dig, "relaxations": result.relaxations,
                   "sim_elapsed": result.elapsed},
            stats=stats)


class Fig5N24(_SolveList):
    """The scaled Fig. 5 grid at the size Tier-1, CI and the CLI run."""

    name = "fig5_n24"

    def _job(self, alpha, clusters, scheme, n):
        from repro.campaign.jobs import CampaignJob

        return CampaignJob(n=n, n_peers=alpha, n_clusters=clusters,
                           scheme=scheme, n_paper=N_PAPER, tol=TOL,
                           seed=self.seed)

    def jobs(self):
        n = 8 if self.tiny else 24
        alphas = (2,) if self.tiny else (2, 4, 8)
        jobs = [self._job(1, 1, "synchronous", n)]
        for alpha, scheme, clusters in itertools.product(
                alphas, ("synchronous", "asynchronous", "hybrid"), (1, 2)):
            jobs.append(self._job(alpha, clusters, scheme, n))
        return jobs

    def warmup_jobs(self):
        # The alpha <= 2 corner touches every scheme and both topologies
        # at a tenth of a pass's cost.
        return [job for job in self._jobs if job.n_peers <= 2]


class SolveN64(_SolveList):
    """Kernel-bound mirror of ``fig5_n24``: five 64**3 solves."""

    name = "solve_n64"

    def jobs(self):
        from repro.campaign.jobs import CampaignJob

        n = 12 if self.tiny else 64
        cells = (
            (1, 1, "synchronous", "float64"),  # plain single-peer baseline
            (2, 1, "synchronous", "float64"),
            (4, 1, "asynchronous", "float64"),
            (4, 2, "hybrid", "float64"),
            (2, 1, "asynchronous", "float32"),
        )
        return [CampaignJob(n=n, n_peers=a, n_clusters=c, scheme=s, dtype=d,
                            n_paper=N_PAPER, tol=TOL, seed=self.seed)
                for a, c, s, d in cells]

    def warmup_jobs(self):
        return [self._jobs[1], self._jobs[4]]


class P2PSAPStream(Workload):
    """One-way streams of ndarray planes between two P2PSAP endpoints."""

    name = "p2psap_stream"
    work_unit = "messages"
    LOSS = 0.02
    SIM_HORIZON = 1e6

    def setup(self):
        self.messages = 20 if self.tiny else 400
        cells = [(scheme, link, side, 0.0)
                 for scheme in ("synchronous", "asynchronous")
                 for link in ("intra", "inter")
                 for side in (24, 96)]
        # Reliable WAN path under loss: retransmissions drive its
        # simulated time.
        cells.append(("synchronous", "inter", 24, self.LOSS))
        random.Random(self.seed).shuffle(cells)
        self._cells = {
            f"{scheme[:5]}-{link}-{side}" + ("-lossy" if loss else ""):
                (scheme, link, side, loss)
            for scheme, link, side, loss in cells}
        rng = np.random.default_rng(self.seed)
        self._planes = {side: [rng.random((side, side)) for _ in range(4)]
                        for side in (24, 96)}
        for name in self._cells:
            self._stream(name, 10)

    def step_names(self):
        return list(self._cells)

    def run_step(self, name, pass_index):
        return self._stream(name, self.messages)

    def _stream(self, name, count):
        import repro.simnet as simnet
        from repro.p2psap import P2PSAP
        from repro.simnet.topology import NICTA_SPEC

        scheme, link, side, loss = self._cells[name]
        planes = self._planes[side]
        with self.tracer.span(f"step:{name}"):
            start = perf_counter()
            sim = simnet.Simulator()
            spec = dataclasses.replace(NICTA_SPEC, wan_loss=loss)
            net = simnet.nicta_testbed(sim, 4, n_clusters=2, spec=spec,
                                       seed=self.seed)
            src = "peer00"
            dst = "peer01" if link == "intra" else "peer02"
            protos = {node: P2PSAP(sim, net, node) for node in (src, dst)}
            received = []
            finished = []
            # An asynchronous receive never blocks; poll once per plane
            # serialization time.
            poll = side * side * 8 * 8.0 / spec.ethernet_bps

            def receiver():
                listener = protos[dst].socket()
                server = yield listener.accept()
                while len(received) < count:
                    payload = yield server.recv()
                    if payload is None:
                        yield sim.timeout(poll)
                        continue
                    received.append(payload)
                finished.append(sim.now)

            def sender():
                sock = protos[src].socket(scheme=scheme)
                yield sock.connect(dst)
                for i in range(count):
                    yield sock.send((i, planes[i % 4]))

            sim.spawn(receiver(), name="stream-receiver")
            sim.spawn(sender(), name="stream-sender")
            # Stop at the last delivery: running the idle timers out to a
            # horizon would time the timers, not the stream.
            while not finished:
                if sim.peek_time() > self.SIM_HORIZON:
                    break
                sim.step()
            elapsed = perf_counter() - start
        session = next(iter(protos[src].sessions.values()))
        config = session.config
        failures = []
        indices = [payload[0] for payload in received]
        if not finished:
            failures.append(f"{name}: receiver got {len(received)} of "
                            f"{count} messages")
        elif config.reliable and indices != list(range(count)):
            failures.append(f"{name}: reliable stream out of order or torn")
        elif sorted(indices) != list(range(count)):
            failures.append(f"{name}: delivered set differs from sent set")
        elif any(payload[1] is not planes[payload[0] % 4]
                 for payload in received):
            failures.append(f"{name}: payload object copied or swapped")
        retransmits = 0
        transport = session.channel.transport
        if transport.has_micro("reliability"):
            retransmits = transport.micro("reliability").stats_retransmits
        dropped = sum(wire.stats_dropped for wire in net.iter_links())
        stats = {
            "app_messages": len(received),
            "sim_time_s": finished[0] if finished else 0.0,
            "retransmits": retransmits,
            "packets_dropped": dropped,
            "max_queue_depth": sim.max_queue_depth,
        }
        for proto in protos.values():
            proto.close()
        return StepResult(
            wall=elapsed, ops=[elapsed], work=len(received), attempted=1,
            failures=failures,
            facts={"sim_last_delivery": stats["sim_time_s"],
                   "events": sim.events_processed,
                   "retransmits": retransmits, "config": config.describe()},
            stats=stats)


def _record_facts(record):
    result = record.result
    return (digest(result.report.u), result.relaxations, result.elapsed)


class CampaignSweep(Workload):
    """The CLI user's operation: a cold sweep, cached re-runs, two drivers."""

    name = "campaign_sweep"
    work_unit = "jobs"

    def setup(self):
        from repro.campaign.jobs import CampaignJob, expand_matrix
        from repro.numerics import membrane_problem

        n = 8 if self.tiny else 32
        self.reruns = 2 if self.tiny else 20
        jobs = expand_matrix(
            [n], n_peers=(2, 4), n_clusters=(1, 2),
            schemes=("synchronous", "asynchronous"), tol=TOL,
            n_paper=N_PAPER, seed=self.seed)
        step = membrane_problem(n).jacobi_delta()
        self.chain = [
            CampaignJob(n=n, n_peers=2, scheme="synchronous", tol=TOL,
                        n_paper=N_PAPER, seed=self.seed, delta=f * step)
            for f in (0.7, 0.8, 0.9, 1.0)]
        self.jobs = jobs + self.chain
        random.Random(self.seed).shuffle(self.jobs)
        self.reference(n)
        self._dirs = []
        self._cold = None
        self._telemetry = []
        self._cache_stats = []
        # The same chain without warm starts, once: the denominator of
        # campaign.warm_relax_saved_ratio.
        records, _ = self._run(self.chain, None, warm_start=False)
        self.chain_cold_relaxations = sum(
            r.result.report.total_relaxations for r in records)
        # Warm-up: import the driver stack and fork once.
        warm = self.temp_dir("warm-")
        self._run(self.jobs[:2], warm, drivers=2)
        shutil.rmtree(warm)

    def step_names(self):
        return ["cold", "cached", "cold_d2"]

    def _run(self, jobs, root, warm_start=True, drivers=1):
        import repro.campaign as campaign

        cache = campaign.ResultCache(root) if root is not None else None
        with campaign.Campaign(jobs, cache=cache, warm_start=warm_start,
                               drivers=drivers) as run:
            records = run.run().records
            self._telemetry.append(run.telemetry_snapshot())
            if cache is not None:
                self._cache_stats.append(run.cache_stats())
        return records, cache

    def run_step(self, name, pass_index):
        failures = []
        stats = {}
        ops = []
        self._telemetry = []
        self._cache_stats = []
        if name in ("cold", "cold_d2"):
            root = self.temp_dir(f"{name}-")
            self._dirs.append(root)
            drivers = 2 if name == "cold_d2" else 1
            with self.tracer.span(f"step:{name}"):
                start = perf_counter()
                records, cache = self._run(self.jobs, root, drivers=drivers)
                ops.append(perf_counter() - start)
            if any(r.source != "run" for r in records):
                failures.append(f"{name}: a job was not solved on a fresh "
                                "cache directory")
            for record in records:
                result = record.result
                failed, _ = self.check_iterate(
                    f"{name} {record.job.label()}", result.report.u,
                    result.residual, record.job.n)
                failures.extend(failed)
            facts = {r.key: _record_facts(r) for r in records}
            for record in records:
                _add(stats, **solve_stats(record.result))
            if name == "cold":
                self._cold = (root, facts)
                stats["cache_bytes_written"] = cache.disk_bytes()
                chain_keys = {job.key() for job in self.chain}
                stats["chain_warm_relaxations"] = sum(
                    r.result.report.total_relaxations
                    for r in records if r.key in chain_keys)
            else:
                if facts != self._cold[1]:
                    failures.append("cold_d2: drivers=2 records differ from "
                                    "drivers=1 records")
                stats["driver_busy_s"] = sum(r.wall_time for r in records)
            attempted = len(records)
        else:
            root, cold_facts = self._cold
            attempted = 0
            with self.tracer.span("step:cached"):
                for _ in range(self.reruns):
                    start = perf_counter()
                    # A new ResultCache per run: every hit is a disk read,
                    # as for a re-invoked CLI.
                    records, _ = self._run(self.jobs, root)
                    ops.append(perf_counter() - start)
                    attempted += len(records)
                    if any(r.source != "cache" for r in records):
                        failures.append("cached: a job was re-solved")
                    if {r.key: _record_facts(r)
                            for r in records} != cold_facts:
                        failures.append("cached: a cached record differs "
                                        "from the cold one")
            facts = cold_facts
        stats["cache"] = self._cache_stats
        stats["telemetry"] = self._telemetry
        return StepResult(wall=sum(ops), ops=ops, work=attempted,
                          attempted=attempted, failures=failures,
                          facts=facts, stats=stats)

    def after_pass(self, pass_index):
        for root in self._dirs:
            shutil.rmtree(root, ignore_errors=True)
        self._dirs = []
        return 0, []

    def teardown(self):
        self.after_pass(-1)


class ServiceRoundtrip(Workload):
    """The service user's operation over real loopback HTTP."""

    name = "service_roundtrip"
    work_unit = "jobs"
    RT_TIMEOUT = 120.0
    POLL = 0.001

    def setup(self):
        from repro.campaign import ResultCache
        from repro.service.client import ServiceClient
        from repro.service.daemon import CampaignService, ServiceDaemon

        self.n_small = 8 if self.tiny else 16
        self.n_burst = 8 if self.tiny else 24
        self.n_cold = 3 if self.tiny else 20
        self.resubmits = 3
        self.burst_campaigns = 1 if self.tiny else 3
        self.rejected = 0
        self._cold = []
        self._sampled = []
        for n in sorted({self.n_small, self.n_burst}):
            self.reference(n)
        self.root = self.temp_dir("service-")
        start = perf_counter()
        self.service = CampaignService(cache=ResultCache(self.root),
                                       drivers=2)
        self.daemon = ServiceDaemon(self.service).start()
        self.client = ServiceClient(self.daemon.url)
        # The first dispatched branch forks the driver pool.
        self._roundtrip(self.client, [self._small(-1, 0)], [], [])
        self.daemon_start_s = perf_counter() - start
        for i in range(1, 4):
            self._roundtrip(self.client, [self._small(-1, i)], [], [])

    def _seed(self, pass_index, i):
        # Distinct per (run seed, pass, job): the daemon's cache outlives
        # a pass, so cold jobs must never repeat a key.
        return (self.seed * 1000 + pass_index % 1000) * 1000 + i

    def _small(self, pass_index, i):
        from repro.campaign.jobs import CampaignJob

        return CampaignJob(n=self.n_small, n_peers=2, scheme="hybrid",
                           tol=TOL, n_paper=N_PAPER,
                           seed=self._seed(pass_index, i))

    def _burst(self, pass_index, i):
        from repro.campaign.jobs import CampaignJob

        return [CampaignJob(n=self.n_burst, n_peers=alpha, scheme=scheme,
                            tol=TOL, n_paper=N_PAPER,
                            seed=self._seed(pass_index, 500 + i))
                for alpha, scheme in ((2, "synchronous"),
                                      (4, "asynchronous"))]

    def _roundtrip(self, client, jobs, ops, failures, expect=None):
        """submit -> poll -> results -> download; returns the downloaded
        ``{cache_key: digest}`` (None when the round trip failed)."""
        from repro.service.client import ServiceError

        start = perf_counter()
        try:
            cid = client.submit(jobs)
            deadline = start + self.RT_TIMEOUT
            polls = 0
            while True:
                status = client.status(cid)["status"]
                polls += 1
                if status in ("done", "failed"):
                    break
                if perf_counter() > deadline:
                    raise TimeoutError(f"campaign {cid} still {status}")
                with self.tracer.span("client.poll_sleep", "service"):
                    time.sleep(self.POLL)
            results = client.results(cid)
            iterates = {row["cache_key"]: client.iterate(cid,
                                                         row["cache_key"])
                        for row in results["jobs"]}
        except (ServiceError, TimeoutError) as exc:
            if isinstance(exc, ServiceError) and exc.status in (409, 503):
                self.rejected += 1
            failures.append(f"round trip failed: {exc}")
            return None
        ops.append(perf_counter() - start)
        self.tracer.count("polls", polls)
        self.tracer.count("iterate_bytes",
                          sum(u.nbytes for u in iterates.values()))
        digests = {}
        for row in results["jobs"]:
            u = iterates[row["cache_key"]]
            failed, digests[row["cache_key"]] = self.check_iterate(
                row["label"], u, row["row"]["residual"], u.shape[0])
            failures.extend(failed)
        summary = results["summary"]
        if expect == "cold" and summary["solved"] != len(jobs):
            failures.append(f"expected {len(jobs)} solves, got {summary}")
        if expect == "cached" and summary["cache_hits"] != len(jobs):
            failures.append(f"expected {len(jobs)} cache hits, got {summary}")
        return digests

    def step_names(self):
        return ["rt_cold", "rt_cached", "burst", "coalesce"]

    def run_step(self, name, pass_index):
        ops, failures = [], []
        stats = {}
        jobs_done = 0
        attempted = 0
        before = self.client.stats()
        if name == "rt_cold":
            self._cold = []
            with self.tracer.span("step:rt_cold"):
                for i in range(self.n_cold):
                    job = self._small(pass_index, i)
                    got = self._roundtrip(self.client, [job], ops, failures,
                                          expect="cold")
                    self._cold.append((job, got))
            attempted = jobs_done = self.n_cold
            self._sampled = [self._cold[0]]
        elif name == "rt_cached":
            with self.tracer.span("step:rt_cached"):
                for _ in range(self.resubmits):
                    for job, cold in self._cold:
                        got = self._roundtrip(self.client, [job], ops,
                                              failures, expect="cached")
                        if got is not None and got != cold:
                            failures.append(
                                f"{job.label()}: cached iterate differs "
                                "from the cold download")
            attempted = jobs_done = self.resubmits * len(self._cold)
        elif name == "burst":
            attempted, jobs_done = self._burst_step(pass_index, ops,
                                                    failures, stats)
        else:
            attempted, jobs_done = self._coalesce_step(pass_index, ops,
                                                       failures, stats)
        after = self.client.stats()
        stats["service_before"] = before
        stats["service_after"] = after
        if name == "rt_cached" and after["service"]["branches_driver"] \
                != before["service"]["branches_driver"]:
            # Cache-served round trips contain no solve: nothing may
            # reach a driver, so no kernel sweep can have run.
            failures.append("rt_cached: a branch was dispatched to a driver")
        # Sequential phases spend the sum of their round trips; the two
        # concurrent ones spend the time until the slower client is done.
        wall = stats.get("parallel_wall_s", sum(ops))
        return StepResult(wall=wall, ops=ops, work=jobs_done,
                          attempted=attempted, failures=failures, facts={},
                          stats=stats)

    def _burst_step(self, pass_index, ops, failures, stats):
        """Two closed-loop clients, each submitting its own campaigns."""
        from repro.service.client import ServiceClient

        lock = threading.Lock()
        first = {}

        def client_loop(index):
            client = ServiceClient(self.daemon.url)
            mine_ops, mine_failures = [], []
            with self.tracer.span("step:burst"):
                for k in range(self.burst_campaigns):
                    jobs = self._burst(pass_index,
                                       index * self.burst_campaigns + k)
                    got = self._roundtrip(client, jobs, mine_ops,
                                          mine_failures, expect="cold")
                    if index == 0 and k == 0:
                        first["sample"] = (jobs, got)
            with lock:
                ops.extend(mine_ops)
                failures.extend(mine_failures)

        threads = [threading.Thread(target=client_loop, args=(i,),
                                    name=f"burst-client-{i}")
                   for i in range(2)]
        start = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(self.RT_TIMEOUT * self.burst_campaigns)
            if thread.is_alive():
                failures.append("burst client did not finish")
        stats["parallel_wall_s"] = perf_counter() - start
        if "sample" in first:
            jobs, got = first["sample"]
            if got is not None:
                self._sampled.extend(
                    (job, {key: dig}) for job, (key, dig)
                    in zip(jobs, got.items()))
        campaigns = 2 * self.burst_campaigns
        stats["burst_jobs"] = 2 * campaigns
        return campaigns, 2 * campaigns

    def _coalesce_step(self, pass_index, ops, failures, stats):
        """Two clients submit one identical campaign at the same moment;
        every cache key must be stored exactly once."""
        from repro.service.client import ServiceClient

        jobs = [self._small(pass_index, 900), self._small(pass_index, 901)]
        barrier = threading.Barrier(2)
        lock = threading.Lock()
        got = []
        stores_before = self.client.stats()["cache"]["stores"]

        def submit():
            client = ServiceClient(self.daemon.url)
            mine_ops, mine_failures = [], []
            with self.tracer.span("step:coalesce"):
                barrier.wait(self.RT_TIMEOUT)
                result = self._roundtrip(client, jobs, mine_ops,
                                         mine_failures)
            with lock:
                ops.extend(mine_ops)
                failures.extend(mine_failures)
                got.append(result)

        threads = [threading.Thread(target=submit, name=f"coalesce-{i}")
                   for i in range(2)]
        start = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(self.RT_TIMEOUT)
        stats["parallel_wall_s"] = perf_counter() - start
        stores = self.client.stats()["cache"]["stores"] - stores_before
        if len(got) != 2 or got[0] is None or got[0] != got[1]:
            failures.append("coalesce: the two submitters got different "
                            "results")
        if stores != len(jobs):
            failures.append(f"coalesce: {stores} stores for {len(jobs)} "
                            "distinct cache keys")
        self.tracer.count("duplicate_solves", max(0, stores - len(jobs)))
        return 2, 2 * len(jobs)

    def after_pass(self, pass_index):
        """Downloaded iterates against an in-process ``run_job`` of the
        exact same job, on a sample (it doubles the solve otherwise)."""
        from repro.experiments import harness

        failures = []
        for job, got in self._sampled:
            if got is None:
                continue
            local = digest(harness.run_job(job).report.u)
            if list(got.values()) != [local]:
                failures.append(f"{job.label()}: daemon iterate differs "
                                "from in-process run_job")
        attempted = len(self._sampled)
        self._sampled = []
        return attempted, failures

    def registries(self):
        """The daemon's registries too: its own context, its cache, and
        the latest snapshot piggybacked from each driver."""
        return super().registries() + [self.service.telemetry_snapshot()]

    def teardown(self):
        daemon = getattr(self, "daemon", None)
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(getattr(self, "root", ""), ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (
    Fig5N24, SolveN64, P2PSAPStream, CampaignSweep, ServiceRoundtrip)}


def leftovers(workdir):
    """Processes and files a finished workload must not leave behind."""
    import multiprocessing

    found = [f"live child process {child.name}"
             for child in multiprocessing.active_children()]
    if os.path.isdir(workdir):
        found.extend(f"temp dir {entry}" for entry in os.listdir(workdir))
    shm = "/dev/shm"
    if os.path.isdir(shm):
        found.extend(f"shared memory {entry}" for entry in os.listdir(shm)
                     if entry.startswith("repro-arena-"))
    return found
