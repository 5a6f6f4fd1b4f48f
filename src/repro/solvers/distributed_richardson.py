"""Distributed projected Richardson over P2PDC — the Figure 4 procedure.

Each peer owns a contiguous range of z-planes, sweeps them sequentially,
and exchanges boundary planes with its chain neighbours via
``P2P_Send``/``P2P_Receive``.  The *behaviour* of those calls is decided
by P2PSAP per Table I — the solver only branches on the session's
current communication mode:

synchronous edge
    per-sweep rendezvous: wait for the neighbour's fresh boundary plane
    (and for our own sends to be consumed) before the next sweep — the
    Jacobi-across-nodes scheme, u^{p+1} = F_δ(u^p);
asynchronous edge
    never wait: take the freshest available plane (possibly a delayed
    iterate u^{ρ(p)} — eq. (5)) and keep sweeping.

Following Figure 4, the last plane U_l(k) is transmitted *first* (node
k+1 needs it at the very start of its sweep) and the first plane U_f(k)
is "delayed" (node k−1 needs it only at the very end of its own sweep).

Termination uses the environment bus and the detectors in
:mod:`repro.solvers.termination`; rank 0 hosts the coordinator.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Optional

import numpy as np

from ..core.programming_model import Application, ProblemDefinition, TaskContext
from ..numerics.blocks import BlockAssignment
from ..numerics.convergence import DiffCriterion
from ..numerics.obstacle import (
    ObstacleProblem,
    membrane_problem,
    options_pricing_problem,
    torsion_problem,
)
from ..numerics.tolerances import check_termination_tol, resolve_dtype
from ..p2psap.context import CommMode, Scheme
from ..parallel.trace import active_recorder
from ..resources import resolve_context
from ..simnet.kernel import _PENDING, AllOfOr
from .halo import BlockState
from .termination import Action, ExactCoordinator, StreakCoordinator

__all__ = [
    "ObstacleApplication",
    "BlockReport",
    "DistributedSolveReport",
    "PROBLEM_FACTORIES",
]

PROBLEM_FACTORIES: dict[str, Callable[[int], ObstacleProblem]] = {
    "membrane": membrane_problem,
    "torsion": torsion_problem,
    "options": options_pricing_problem,
}

# Peers in one process share read-only problem data (fields b, obstacle):
# a memory optimization of the simulation, not of the algorithm — each
# peer still owns and updates only its block of the iterate.  The cache
# is a bounded LRU (large instances are ~n³ floats each; an unbounded
# one would grow for the life of the process), lives on the resolved
# ResourceContext (per-campaign / per-driver; the default context for
# plain solves), and can be cleared explicitly so test runs cannot leak
# state into each other.  A problem's reference solution (the scenario
# invariants') is evicted and cleared with it.
_PROBLEM_CACHE_MAX = 16

#: Consecutive below-tol sweeps a peer needs to report local convergence
#: (CONV) and to confirm it on VERIFY, in the non-synchronous schemes.
STREAK = 3


def get_problem(kind: str, n: int, resources=None) -> ObstacleProblem:
    ctx = resolve_context(resources)
    cache = ctx.problem_cache
    key = (kind, n)
    problem = cache.get(key)
    if problem is None:
        try:
            factory = PROBLEM_FACTORIES[kind]
        except KeyError:
            raise ValueError(
                f"unknown problem kind {kind!r}; known: {sorted(PROBLEM_FACTORIES)}"
            ) from None
        problem = factory(n)
        while len(cache) >= _PROBLEM_CACHE_MAX:
            oldest = next(iter(cache))
            del cache[oldest]
            ctx.references.pop(oldest, None)
    else:
        # Re-insert to record recency (dicts preserve insertion order).
        del cache[key]
    cache[key] = problem
    return problem


def clear_problem_cache(resources=None) -> None:
    """Drop ``resources``' cached problem instances and their reference
    solutions (test isolation hook; other contexts keep theirs)."""
    ctx = resolve_context(resources)
    ctx.problem_cache.clear()
    ctx.references.clear()


@dataclasses.dataclass
class BlockReport:
    """One peer's result: its block plus counters."""

    rank: int
    lo: int
    hi: int
    block: np.ndarray
    relaxations: int
    converged_at: Optional[int]
    wait_time: float
    sends: int
    receives: int
    final_diff: float
    #: Side-channel metadata the aggregator needs (problem kind, scheme).
    extra: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class DistributedSolveReport:
    """Aggregated outcome (Results_Aggregation's output)."""

    u: np.ndarray
    n: int
    n_peers: int
    scheme: Scheme
    #: The paper's "number of relaxations": the convergence iteration for
    #: synchronous schemes (constant across α), the per-peer average for
    #: asynchronous ones (grows with α).
    relaxations: float
    per_peer: list[BlockReport]
    residual: float
    #: Where this solve's starting point came from and how it ran —
    #: ``{"warm_start": <label or None>, "dtype": ..., "restarted": ...}``.
    #: A warm-started solve is a different trajectory than a cold one;
    #: campaign result caches key on this so the two never alias.
    provenance: dict = dataclasses.field(default_factory=dict)

    @property
    def max_wait_time(self) -> float:
        return max(r.wait_time for r in self.per_peer)

    @property
    def total_relaxations(self) -> int:
        return sum(r.relaxations for r in self.per_peer)


class ObstacleApplication(Application):
    """The P2PDC application solving the 3-D obstacle problem.

    app_params (with defaults):

    - ``n``: grid size (planes = n, points = n³) — required;
    - ``problem``: "membrane" | "torsion" | "options" (membrane);
    - ``n_peers``: α (1);
    - ``scheme``: synchronous | asynchronous | hybrid (hybrid);
    - ``tol``: max-diff tolerance (1e-4 scaled to the problem);
    - ``max_relaxations``: safety cap (200000);
    - ``weights``: optional per-peer speed weights (load balancing);
    - ``checkpoint_every``: sweeps between checkpoints, 0 = off (0);
    - ``eager_first_plane``: ablation switch — send U_f(k) *before*
      U_l(k), i.e. disable the Figure 4 delayed-send optimization;
    - ``dtype``: iterate precision, "float64" (default) or "float32".
      Halves both the sweep memory traffic and the modeled wire size of
      every boundary plane.  ``tol`` must stay above the dtype's
      termination floor (float32 diffs carry ~1e-7 of quantization
      noise; see :mod:`repro.numerics.tolerances`) — the default
      ``tol=1e-4`` is safe at both precisions.
    - ``warm_start_u``: optional full ``(n, n, n)`` starting iterate
      (must already carry the solve's dtype); every peer slices its own
      block + ghosts from it.  ``warm_start_label`` names the source
      for the report's provenance.  The array rides the SUBTASK
      dispatch, so its bytes are charged to the simulated network —
      warm-started elapsed times are not comparable to cold ones.

    ``resources`` — the ResourceContext every solve this application
    hosts runs against (None = the process default) — travels out of
    band, on the application object, never in the params, which are
    simulated wire payload whose size feeds the network model.
    """

    name = "obstacle"

    def __init__(self, resources=None):
        self.resources = resources

    def problem_definition(self, params) -> ProblemDefinition:
        n = int(params["n"])
        n_peers = int(params.get("n_peers", 1))
        scheme = Scheme.parse(params.get("scheme", "hybrid"))
        weights = params.get("weights")
        if weights is not None:
            assignment = BlockAssignment.weighted(n, list(weights))
            if assignment.n_nodes != n_peers:
                raise ValueError("weights length must equal n_peers")
        else:
            assignment = BlockAssignment.balanced(n, n_peers)
        # Subtasks deliberately carry only this peer's own range: the
        # full assignment is deterministic from the params every peer
        # already holds, and shipping it would inflate every modeled
        # SUBTASK dispatch by O(α) bytes.
        subtasks = [
            {"lo": r.start, "hi": r.stop, "n": n}
            for r in assignment.ranges
        ]
        return ProblemDefinition(subtasks=subtasks, scheme=scheme, n_peers=n_peers)

    def calculate(self, ctx: TaskContext):
        # Errors and aborts (a crashed peer) still drop the in-flight
        # sweep and the sweep workspace.
        solver = _BlockSolver(ctx)
        try:
            report = yield from solver.run()
            return report
        finally:
            solver.close()

    def results_aggregation(self, results) -> DistributedSolveReport:
        reports: list[BlockReport] = sorted(results, key=lambda r: r.rank)
        n = reports[0].block.shape[1]
        # Assemble in the blocks' own dtype — aggregation must not
        # silently promote a float32 solve back to float64.
        u = np.empty((n, n, n), dtype=reports[0].block.dtype)
        for rep in reports:
            u[rep.lo:rep.hi] = rep.block
        return assemble_report(reports, u, resources=self.resources)


def assemble_report(reports: list[BlockReport], u: np.ndarray,
                    resources=None) -> DistributedSolveReport:
    """Build the aggregate report (separated for testability)."""
    n = u.shape[0]
    meta = reports[0]
    problem = get_problem(meta.extra["problem"], n, resources=resources)
    scheme = Scheme.parse(meta.extra["scheme"])
    if scheme is Scheme.SYNCHRONOUS:
        converged = [r.converged_at for r in reports if r.converged_at is not None]
        relaxations = float(max(converged)) if converged else float(
            np.mean([r.relaxations for r in reports])
        )
    else:
        relaxations = float(np.mean([r.relaxations for r in reports]))
    return DistributedSolveReport(
        u=u,
        n=n,
        n_peers=len(reports),
        scheme=scheme,
        relaxations=relaxations,
        per_peer=reports,
        residual=problem.residual_norm(u),
        provenance=dict(meta.extra.get("provenance", {})),
    )


class _BlockSolver:
    """Per-peer solve loop (the body of Calculate())."""

    def __init__(self, ctx: TaskContext):
        self.ctx = ctx
        self.sim = ctx.sim
        params = ctx.params
        self.kind = params.get("problem", "membrane")
        self.n = int(params["n"])
        self.tol = float(params.get("tol", 1e-4))
        # Iterate precision.  The tolerance must be resolvable by diffs
        # computed in this dtype: at float32 a diff of an O(1) iterate
        # quantizes to ~1e-7, so tolerances below the floor (≈ 3.8e-6)
        # would make STOP decisions depend on rounding noise — rejected
        # here, once, before any peer starts sweeping.
        self.dtype = resolve_dtype(params.get("dtype"))
        self.tol = check_termination_tol(self.tol, self.dtype)
        self.max_relax = int(params.get("max_relaxations", 200_000))
        self.checkpoint_every = int(params.get("checkpoint_every", 0))
        self.eager_first_plane = bool(params.get("eager_first_plane", False))
        # Send conflation for asynchronous edges: a boundary plane is
        # worth transmitting only as fast as the wire can carry it; any
        # faster and the link queue grows without bound, making every
        # received iterate arbitrarily stale (the asynchronous-convergence
        # assumption lim ρ_j(p) = ∞ needs bounded staleness in practice).
        # Newest-supersedes-oldest at the sender is the standard fix.
        # The per-neighbour interval comes from the *actual* outgoing link
        # bandwidth (context data), resolved once sessions exist.
        self._send_interval: dict[int, float] = {}
        self._last_send: dict[int, float] = {}
        # The explicit resource context this solve runs against — it
        # arrives out-of-band via the executor (TaskContext.resources),
        # never through the params (params are modeled wire payload).
        self.resources = ctx.resources
        # Span tracing rides the same out-of-band context (off unless
        # REPRO_TELEMETRY=spans, read once per solve, here): wall-clock
        # only, so instrumented and bare solves stay bit-identical.  None
        # when off, so an unrecorded span costs no call (_enter_span).
        self._span = resolve_context(self.resources).telemetry.span_factory()
        self.problem = get_problem(self.kind, self.n,
                                   resources=self.resources)
        sub = ctx.subtask
        delta = float(params.get("delta", self.problem.jacobi_delta()))
        self.state = BlockState(
            problem=self.problem, lo=sub["lo"], hi=sub["hi"],
            delta=delta, dtype=self.dtype,
            local_sweep=params.get("local_sweep", "gauss_seidel"),
            resources=self.resources,
        )
        # Crash recovery: the executor re-dispatches an interrupted
        # sub-task with the freshest checkpoint spliced in — block,
        # ghost planes, and the sweep counter (relaxation-count
        # provenance survives the crash).
        self.restarted = bool(sub.get("restarted", False))
        warm = sub.get("warm_start")
        if warm is not None:
            self.state.warm_start(np.asarray(warm))
        warm_gb = sub.get("warm_ghost_below")
        if warm_gb is not None and self.state.ghost_below is not None:
            self.state.update_ghost_below(np.asarray(warm_gb))
        warm_ga = sub.get("warm_ghost_above")
        if warm_ga is not None and self.state.ghost_above is not None:
            self.state.update_ghost_above(np.asarray(warm_ga))
        # Campaign warm start: the whole previous solution rides the
        # params (every peer slices its own planes + ghosts from
        # it).  Unlike the per-subtask checkpoint restart above,
        # this is a *different problem's* solution used as the
        # starting iterate — the trajectory is legitimately
        # different from a cold solve, so the provenance records it
        # and result caches key on it.
        self.warm_source: Optional[str] = None
        warm_u = params.get("warm_start_u")
        if warm_u is not None:
            self._apply_warm_start(warm_u,
                                   params.get("warm_start_label"))
        self.rank = ctx.rank
        self.left = self.rank - 1 if self.rank > 0 else None
        self.right = self.rank + 1 if self.rank + 1 < ctx.n_workers else None
        self.scheme = ctx.scheme
        # Fixed for the whole solve: the machine the compute is charged
        # to, one sweep's work, and the inbox of termination messages.
        self._node = ctx.node
        self._flops = self.state.flops()
        self._inbox = ctx.env_inbox
        # Per-neighbour edges, resolved by _resolve_edges once the
        # sessions are open.
        self._sends: tuple = ()
        self._sync_recvs: tuple = ()
        self._async_recvs: tuple = ()
        # Counters.  A restarted peer resumes its sweep counter from
        # the checkpoint so relaxation counts stay comparable to the
        # fault-free run (re-executed sweeps are counted once).
        self.sweeps = int(sub.get("start_sweep", 0))
        self.wait_time = 0.0
        self.sends = 0
        self.receives = 0
        self.stopped = False
        self.stop_info: Optional[int] = None
        self.local_diff = float("inf")
        # Termination machinery.
        self.exact_mode = self.scheme is Scheme.SYNCHRONOUS
        self.criterion = DiffCriterion(self.tol, consecutive=STREAK)
        self.locally_converged = False
        # In-flight verification round: [epoch, async-neighbours whose
        # fresh ghost we must still observe, diff-stayed-below-tol].
        # Answering only after seeing *fresh* neighbour data rules out
        # "converged on stale ghosts" false positives.
        self._verify_pending: Optional[list] = None
        self.coordinator = None
        if self.rank == 0 and ctx.n_workers > 1:
            self.coordinator = (
                ExactCoordinator(ctx.n_workers, self.tol)
                if self.exact_mode else StreakCoordinator(ctx.n_workers)
            )
        # Schedule tracing: when a recorder is active (the
        # trace-equivalence harness installs one around the run),
        # register this peer's initial state and record every sweep
        # dispatch/collect and ghost application, in driver order.
        self._recorder = active_recorder()
        if self._recorder is not None:
            if self.restarted and self._recorder.has_peer(self.rank):
                # Crash recovery mid-trace: the rank already exists
                # in the live trace, so record the restored state as
                # an event rather than opening a new trace.
                self._recorder.restore(
                    rank=self.rank,
                    iteration=self.sweeps,
                    block=self.state.block,
                    ghost_below=self.state.ghost_below,
                    ghost_above=self.state.ghost_above,
                )
            else:
                self._recorder.register_peer(
                    rank=self.rank,
                    lo=self.state.lo,
                    hi=self.state.hi,
                    block=self.state.block,
                    ghost_below=self.state.ghost_below,
                    ghost_above=self.state.ghost_above,
                    solve={
                        "problem": self.kind,
                        "n": self.n,
                        "n_peers": ctx.n_workers,
                        "delta": self.state.delta,
                        "dtype": self.dtype.name,
                        "local_sweep": self.state.local_sweep,
                        "scheme": self.scheme.value,
                        "tol": self.tol,
                    },
                )

    def _apply_warm_start(self, warm_u, label) -> None:
        """Start this peer's block (and ghosts) from a full iterate.

        The warm iterate must already carry the solve's dtype — the
        campaign engine casts once, centrally, before submitting; a
        mismatched array here is a caller bug and is rejected loudly by
        the BlockState dtype checks rather than silently promoted.
        """
        u = np.asarray(warm_u)
        shape = (self.n,) * 3
        if u.shape != shape:
            raise ValueError(
                f"warm_start_u must have shape {shape}, got {u.shape}"
            )
        state = self.state
        state.warm_start(np.ascontiguousarray(u[state.lo:state.hi]))
        if state.ghost_below is not None:
            state.update_ghost_below(u[state.lo - 1])
        if state.ghost_above is not None:
            state.update_ghost_above(u[state.hi])
        self.warm_source = str(label) if label is not None else "params"

    # -- main loop ----------------------------------------------------------------

    def run(self):
        ctx = self.ctx
        if ctx.n_workers == 1:
            yield from self._run_single()
            return self._report()
        # Establish neighbour sessions up front so the first exchange's
        # mode is known (connection setup crosses the control channel).
        for nb in (self.left, self.right):
            if nb is not None:
                yield ctx.connect(nb)
        self._resolve_edges()
        if self.restarted and not self.exact_mode:
            # The coordinator may still hold this rank's pre-crash
            # CONV(True); a restarted peer must re-earn its streak
            # before any verification round can certify a STOP.
            self.locally_converged = False
            self._send_term(0, ("CONV", False))
        while not self.stopped and self.sweeps < self.max_relax:
            span = None if self._span is None else \
                self._enter_span("iteration", self.sweeps + 1)
            try:
                self._drain_env_nowait()
                if self.stopped:
                    break
                self._pull_async_ghosts()
                diff = yield from self._sweep_step()
                if self.checkpoint_every \
                        and self.sweeps % self.checkpoint_every == 0:
                    ctx.checkpoint(self._checkpoint_payload())
                exchange_events, recv_events = self._send_boundaries()
                self._report_termination(diff)
                if self.stopped:
                    break
                if exchange_events:
                    exchange = None if self._span is None else \
                        self._enter_span("ghost-exchange", self.sweeps)
                    try:
                        yield from self._wait_exchange(exchange_events)
                    finally:
                        if exchange is not None:
                            exchange.__exit__(None, None, None)
                    if self.stopped:
                        break
                    self._apply_sync_ghosts(recv_events)
            finally:
                if span is not None:
                    span.__exit__(None, None, None)
        if (
            self.stopped and self.restarted
            and self.stop_info is not None and self.local_diff > self.tol
        ):
            yield from self._polish_local()
        return self._report()

    def _enter_span(self, name: str, iteration: int):
        """Enter and return the span ``name`` of this peer's
        ``iteration``; its caller exits it in a ``finally``, as ``with``
        would.  Callers test ``self._span`` for None first, so with
        spans off a span site costs no call at all."""
        span = self._span(name, peer=self.rank, iteration=iteration)
        span.__enter__()
        return span

    def _checkpoint_payload(self) -> dict:
        """Everything a restarted peer needs to resume: block, ghost
        planes (its neighbours' last seen boundaries), sweep counter."""
        state = self.state
        return {
            "rank": self.rank, "lo": state.lo, "hi": state.hi,
            "block": state.block.copy(), "sweep": self.sweeps,
            "ghost_below": (
                None if state.ghost_below is None else state.ghost_below.copy()
            ),
            "ghost_above": (
                None if state.ghost_above is None else state.ghost_above.copy()
            ),
        }

    def _polish_local(self):
        """Re-earn a STOP certificate issued against pre-crash state.

        There is a narrow window where a STOP certified before (or
        concurrently with) this peer's crash reaches the restarted
        incarnation, whose restored block is older than the certificate.
        The certificate's global claim is sound for every *other* peer,
        so it suffices to relax the restored block against the held
        boundary planes until the local criterion holds again — the
        assembled solution is then never staler than the STOP it reports.
        """
        criterion = DiffCriterion(self.tol)
        while self.sweeps < self.max_relax:
            diff = yield from self._sweep_step()
            if criterion.check(diff):
                return
        raise RuntimeError(
            f"rank {self.rank}: no local re-convergence after restart in "
            f"{self.max_relax} relaxations"
        )

    def _run_single(self):
        """α = 1: the sequential sweep with compute-cost accounting.

        Uses the plain single-shot criterion (no streak): with no
        neighbours there is no staleness to hedge against, and the
        relaxation count must equal the sequential solver's exactly.
        """
        criterion = DiffCriterion(self.tol)
        while self.sweeps < self.max_relax:
            diff = yield from self._sweep_step()
            if criterion.check(diff):
                self.stop_info = self.sweeps
                return
        raise RuntimeError(f"no convergence in {self.max_relax} relaxations")

    def _sweep_step(self):
        """One relaxation plus its simulated compute charge, split-phase.

        Dispatch the real sweep, charge the simulated compute, *then*
        collect: while this peer's virtual compute elapses, other peers
        dispatch theirs.  On the host the same happens for real: a
        compiled sweep relaxes on a worker thread while the DES runs
        the other peers' events, and the collect joins it.  The
        BlockState guards keep the sweep's inputs frozen in between,
        so the diff and iterate are those of a sweep run inline.
        """
        iteration = self.sweeps + 1
        if self._recorder is not None:
            self._recorder.sweep_begin(self.rank, iteration)
        span = None if self._span is None else \
            self._enter_span("sweep", iteration)
        try:
            self.state.begin_sweep()
            self.sweeps = iteration
            yield self._node.compute(self._flops)
            diff = self.state.finish_sweep()
            self.local_diff = diff
            if self._recorder is not None:
                self._recorder.sweep_end(self.rank, iteration, diff)
            return diff
        finally:
            if span is not None:
                span.__exit__(None, None, None)

    # -- communication ----------------------------------------------------------------

    def problem_plane_bytes(self) -> int:
        """Wire size of one boundary plane (n² elements of the solve's
        dtype — float32 planes cost half the modeled bandwidth)."""
        return self.n * self.n * self.dtype.itemsize

    def _min_interval(self, nb: int) -> float:
        """Conflation interval towards neighbour ``nb``: ~1 plane's
        serialization time on that link (slightly over, so the queue
        stays empty and staleness stays bounded by one plane)."""
        cached = self._send_interval.get(nb)
        if cached is None:
            bw = self.ctx.link_bandwidth(nb)
            cached = 1.1 * (self.problem_plane_bytes() * 8.0) / bw
            self._send_interval[nb] = cached
        return cached

    def _resolve_edges(self) -> None:
        """Read each neighbour session's mode once, after ``connect``.

        Table I fixes a session's mode when it opens, from the scheme
        and the pair's clusters, and neither changes during a solve: a
        neighbour that crashes and rejoins opens a session in the same
        cell.  So the per-sweep exchange reads these tuples, not the
        sessions.
        """
        edges = [(nb, tag, self.ctx.session_mode(nb))
                 for nb, tag in ((self.left, "below"), (self.right, "above"))
                 if nb is not None]
        # Figure 4 order: U_l(k) to k+1 first, U_f(k) to k−1 delayed
        # (unless the eager ablation flips it).
        sends = [(nb, tag == "above", mode is CommMode.SYNCHRONOUS)
                 for nb, tag, mode in reversed(edges)]
        if self.eager_first_plane:
            sends.reverse()
        self._sends = tuple(sends)
        self._sync_recvs = tuple((nb, tag) for nb, tag, mode in edges
                                 if mode is CommMode.SYNCHRONOUS)
        self._async_recvs = tuple((nb, tag) for nb, tag, mode in edges
                                  if mode is CommMode.ASYNCHRONOUS)
        for nb, _tag in self._async_recvs:
            self._last_send[nb] = -float("inf")

    def _send_boundaries(self):
        """Transmit boundary planes; returns (events-to-wait, recv-map).

        Sends go in :meth:`_resolve_edges`' order.  For synchronous
        edges the send completions and the fresh-ghost receives join the
        wait set; asynchronous edges are fire-and-forget.
        """
        wait_events = []
        recv_events: dict[str, Any] = {}
        state = self.state
        for nb, last_plane, sync_edge in self._sends:
            if not sync_edge:
                # Conflate: skip this update if the wire is still busy
                # with the previous one (the neighbour only wants the
                # freshest plane anyway).
                now = self.sim._now
                try:
                    interval = self._send_interval[nb]
                except KeyError:
                    interval = self._min_interval(nb)
                if now - self._last_send[nb] < interval:
                    continue
                self._last_send[nb] = now
            plane = state.last_plane if last_plane else state.first_plane
            ev = self.ctx.p2p_send(nb, ("PLANE", self.sweeps, plane.copy()))
            self.sends += 1
            if sync_edge:
                wait_events.append(ev)
        for nb, ghost_tag in self._sync_recvs:
            rev = self.ctx.p2p_receive(nb)
            recv_events[ghost_tag] = rev
            wait_events.append(rev)
        return wait_events, recv_events

    def _apply_sync_ghosts(self, recv_events) -> None:
        for tag, ev in recv_events.items():
            payload = ev.value
            if payload is None:
                continue
            kind, iteration, plane = payload
            assert kind == "PLANE", f"unexpected payload {kind!r}"
            self.receives += 1
            if tag == "below":
                self.state.update_ghost_below(plane)
            else:
                self.state.update_ghost_above(plane)
            if self._recorder is not None:
                self._recorder.ghost(self.rank, tag, plane, iteration)

    def _pull_async_ghosts(self) -> None:
        """Freshest available planes from asynchronous edges (eq. (5):
        delayed components are allowed; newest wins)."""
        for nb, tag in self._async_recvs:
            ok, payload = self.ctx.p2p_receive_latest_nowait(nb)
            if ok and payload is not None:
                _kind, iteration, plane = payload
                self.receives += 1
                if tag == "below":
                    self.state.update_ghost_below(plane)
                else:
                    self.state.update_ghost_above(plane)
                if self._recorder is not None:
                    self._recorder.ghost(self.rank, tag, plane, iteration)
                if self._verify_pending is not None:
                    self._verify_pending[1].discard(nb)

    def _wait_exchange(self, events):
        """Wait for the synchronous exchange, interruptible by STOP."""
        sim = self.sim
        t0 = sim._now
        inbox = self._inbox
        while True:
            inbox_ev = inbox.get()
            done = AllOfOr(sim, events, inbox_ev)
            yield done
            if inbox_ev._value is not _PENDING:
                self._handle_env(*inbox_ev._value)
            else:
                inbox.cancel_get(inbox_ev)
            if self.stopped or done.all_fired:
                break
        self.wait_time += sim._now - t0

    # -- termination ---------------------------------------------------------------------

    def _report_termination(self, diff: float) -> None:
        if self.ctx.n_workers == 1:
            return
        if self.exact_mode:
            self._send_term(0, ("DIFF", self.sweeps, diff))
            return
        converged = self.criterion.check(diff)
        if self._verify_pending is not None:
            epoch, needed = self._verify_pending
            if diff >= self.tol:
                self._verify_pending = None
                self._send_term(0, ("VERIFY_ACK", epoch, False))
            elif not needed:
                # Fresh data from every asynchronous neighbour arrived and
                # the iterate still did not move: genuinely converged.
                self._verify_pending = None
                self._send_term(0, ("VERIFY_ACK", epoch, True))
        if converged != self.locally_converged:
            self.locally_converged = converged
            self._send_term(0, ("CONV", converged))

    def _send_term(self, rank: int, body: tuple) -> None:
        if rank == self.rank:
            self._handle_env(self.rank, body)
        else:
            self.ctx.env_send(rank, body)

    def _drain_env_nowait(self) -> None:
        inbox = self._inbox
        while True:
            ok, item = inbox.get_nowait()
            if not ok:
                return
            self._handle_env(*item)
            if self.stopped:
                return

    def _handle_env(self, src_rank: int, body: tuple) -> None:
        tag = body[0]
        if tag == "STOP":
            self.stopped = True
            self.stop_info = body[1]
            if self._recorder is not None:
                self._recorder.stop(self.rank, self.sweeps)
            return
        if tag == "VERIFY":
            epoch = body[1]
            if not self.criterion.streak >= STREAK:
                self._send_term(0, ("VERIFY_ACK", epoch, False))
                return
            needed = {nb for nb, _tag in self._async_recvs}
            if not needed:
                self._send_term(0, ("VERIFY_ACK", epoch, True))
                return
            self._verify_pending = [epoch, needed]
            return
        if self.coordinator is None:
            return
        if tag == "DIFF":
            actions = self.coordinator.on_diff(src_rank, body[1], body[2])
        elif tag == "CONV":
            actions = self.coordinator.on_conv(src_rank, body[1])
        elif tag == "VERIFY_ACK":
            actions = self.coordinator.on_verify_ack(src_rank, body[1], body[2])
        else:
            raise ValueError(f"unknown termination message {tag!r}")
        self._dispatch(actions)

    def _dispatch(self, actions: list[Action]) -> None:
        for action in actions:
            targets = (
                range(self.ctx.n_workers) if action.rank is None else [action.rank]
            )
            for rank in targets:
                self._send_term(rank, action.body)

    # -- result -------------------------------------------------------------------------

    def close(self) -> None:
        """Drop the sweep workspace and any in-flight sweep (idempotent)."""
        self.state.release()

    def _report(self) -> BlockReport:
        block = self.state.export_block()
        self.close()
        report = BlockReport(
            rank=self.rank,
            lo=self.state.lo,
            hi=self.state.hi,
            block=block,
            relaxations=self.sweeps,
            converged_at=self.stop_info,
            wait_time=self.wait_time,
            sends=self.sends,
            receives=self.receives,
            final_diff=self.local_diff,
            extra={
                "problem": self.kind,
                "scheme": self.scheme.value,
                "provenance": {
                    "warm_start": self.warm_source,
                    "dtype": self.dtype.name,
                    "restarted": self.restarted,
                },
            },
        )
        return report
