"""Deterministic trace-replay for asynchronous stepping.

Asynchronous and hybrid projected-Richardson schemes are
*order-sensitive*: the iterate a peer produces depends on exactly which
(possibly delayed) neighbour planes sat in its ghosts when its sweep
ran.  Checking a solve iterate for iterate therefore needs the
*schedule* it ran under, not just its final answer.  This module
provides that layer:

:class:`TraceRecorder` / :func:`record_schedule`
    record the (peer, iteration, ghost-exchange) schedule of a live DES
    solve — the solver calls the hooks when a recorder is active — as a
    :class:`ScheduleTrace`: per-peer initial snapshots plus the global
    event sequence in driver order (which *is* the DES order; the kernel
    is deterministic).

:func:`replay_trace`
    re-execute a recorded schedule directly against per-peer
    :class:`~repro.solvers.halo.BlockState` objects, asserting nothing
    itself but returning every per-sweep diff (and optionally every
    post-sweep iterate) so tests can compare replay against recording,
    bit for bit.

:class:`ScheduleHarness` / :func:`random_schedule`
    the schedule-fuzz layer: drive the same per-peer states through
    *synthetic* schedules — arbitrary interleavings of split-phase
    sweeps and boundary exchanges, valid by construction — to check the
    invariants that must hold under **any** ordering (the asynchronous
    convergence theory of the paper's eq. (5)): the sup-norm error
    envelope never grows, convergence is reached from any schedule
    prefix, and the split-phase state machine neither deadlocks nor
    permits a consistency-violating access (those raise instead).
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
from typing import Any, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "TraceEvent",
    "PeerSnapshot",
    "ScheduleTrace",
    "TraceRecorder",
    "record_schedule",
    "active_recorder",
    "replay_trace",
    "ReplayResult",
    "traces_equal",
    "assert_traces_equal",
    "ScheduleHarness",
    "random_schedule",
]


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One step of a recorded schedule.

    ``kind`` is one of:

    - ``"begin"`` — peer ``rank`` dispatched sweep ``iteration``;
    - ``"end"`` — that sweep was collected, yielding ``diff``;
    - ``"ghost"`` — a neighbour plane (sent at the neighbour's
      ``src_iteration`` — possibly a delayed iterate, eq. (5)) was
      written into ``rank``'s ``side`` ("below"/"above") ghost; the
      plane bytes ride along so replay is closed under staleness;
    - ``"stop"`` — peer ``rank`` observed STOP after ``iteration``
      sweeps (metadata only; replay ignores it);
    - ``"restore"`` — peer ``rank`` crashed and came back from a
      checkpoint: ``state`` holds the restored block and ghost planes,
      ``iteration`` the resumed sweep counter.  Replay aborts whatever
      the rank had in flight and installs the restored state, exactly
      as the live crash path does.
    """

    kind: str
    rank: int
    iteration: int
    side: Optional[str] = None
    plane: Optional[np.ndarray] = None
    diff: Optional[float] = None
    src_iteration: Optional[int] = None
    #: "restore" only: {"block", "ghost_below", "ghost_above"} copies.
    state: Optional[dict] = None


@dataclasses.dataclass(frozen=True)
class PeerSnapshot:
    """A peer's starting state: its block and both ghost planes."""

    rank: int
    lo: int
    hi: int
    block: np.ndarray
    ghost_below: Optional[np.ndarray]
    ghost_above: Optional[np.ndarray]


@dataclasses.dataclass
class ScheduleTrace:
    """The recorded schedule of one distributed solve."""

    solve: dict[str, Any]
    peers: dict[int, PeerSnapshot] = dataclasses.field(default_factory=dict)
    events: list[TraceEvent] = dataclasses.field(default_factory=list)

    @property
    def n_sweeps(self) -> int:
        return sum(1 for ev in self.events if ev.kind == "end")

    def ranges(self) -> list[tuple[int, int]]:
        """The plane partition, ascending."""
        return [(p.lo, p.hi)
                for p in sorted(self.peers.values(), key=lambda p: p.lo)]


def _plane_equal(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> bool:
    if a is None or b is None:
        return (a is None) == (b is None)
    return a.dtype == b.dtype and np.array_equal(a, b)


def traces_equal(a: ScheduleTrace, b: ScheduleTrace) -> bool:
    """Bitwise schedule equality (metadata, snapshots, every event)."""
    return _trace_mismatch(a, b) is None


def _trace_mismatch(a: ScheduleTrace, b: ScheduleTrace) -> Optional[str]:
    if a.solve != b.solve:
        return f"solve metadata differs: {a.solve} != {b.solve}"
    if sorted(a.peers) != sorted(b.peers):
        return f"peer ranks differ: {sorted(a.peers)} != {sorted(b.peers)}"
    for rank in a.peers:
        pa, pb = a.peers[rank], b.peers[rank]
        if (pa.lo, pa.hi) != (pb.lo, pb.hi):
            return f"peer {rank} range differs"
        if not _plane_equal(pa.block, pb.block):
            return f"peer {rank} initial block differs"
        if not (_plane_equal(pa.ghost_below, pb.ghost_below)
                and _plane_equal(pa.ghost_above, pb.ghost_above)):
            return f"peer {rank} initial ghosts differ"
    if len(a.events) != len(b.events):
        return f"event counts differ: {len(a.events)} != {len(b.events)}"
    for i, (ea, eb) in enumerate(zip(a.events, b.events)):
        if (ea.kind, ea.rank, ea.iteration, ea.side, ea.src_iteration) != \
                (eb.kind, eb.rank, eb.iteration, eb.side, eb.src_iteration):
            return f"event {i} differs: {ea} != {eb}"
        if ea.diff != eb.diff:
            return (f"event {i} diff differs: {ea.diff!r} != {eb.diff!r} "
                    f"({ea.kind} rank {ea.rank} it {ea.iteration})")
        if not _plane_equal(ea.plane, eb.plane):
            return f"event {i} ghost plane bytes differ"
        if (ea.state is None) != (eb.state is None):
            return f"event {i} restore state presence differs"
        if ea.state is not None:
            for key in ("block", "ghost_below", "ghost_above"):
                if not _plane_equal(ea.state.get(key), eb.state.get(key)):
                    return f"event {i} restore state {key!r} differs"
    return None


def assert_traces_equal(a: ScheduleTrace, b: ScheduleTrace) -> None:
    """Raise AssertionError naming the first divergence, if any."""
    mismatch = _trace_mismatch(a, b)
    assert mismatch is None, mismatch


class TraceRecorder:
    """Collects :class:`ScheduleTrace` s from live solver runs.

    One recorder can span several sequential solves (a whole campaign):
    a rank re-registering starts a new trace, so ``traces[k]`` is the
    k-th solve executed while the recorder was active.  ``trace`` is
    the single-solve convenience accessor.
    """

    def __init__(self) -> None:
        self.traces: list[ScheduleTrace] = []
        self._current: Optional[ScheduleTrace] = None

    @property
    def trace(self) -> ScheduleTrace:
        if len(self.all_traces()) != 1:
            raise ValueError(
                f"recorder holds {len(self.all_traces())} traces; use "
                ".traces / .all_traces() for multi-solve recordings"
            )
        return self.all_traces()[0]

    def all_traces(self) -> list[ScheduleTrace]:
        out = list(self.traces)
        if self._current is not None:
            out.append(self._current)
        return out

    # -- solver-facing hooks ------------------------------------------------------

    def register_peer(self, rank: int, lo: int, hi: int,
                      block: np.ndarray,
                      ghost_below: Optional[np.ndarray],
                      ghost_above: Optional[np.ndarray],
                      solve: dict[str, Any]) -> None:
        cur = self._current
        if cur is None or rank in cur.peers:
            if cur is not None:
                self.traces.append(cur)
            cur = self._current = ScheduleTrace(solve=dict(solve))
        elif cur.solve != solve:
            raise ValueError(
                f"peer {rank} registered inconsistent solve metadata: "
                f"{solve} != {cur.solve}"
            )
        cur.peers[rank] = PeerSnapshot(
            rank=rank, lo=lo, hi=hi,
            block=np.array(block, copy=True),
            ghost_below=None if ghost_below is None
            else np.array(ghost_below, copy=True),
            ghost_above=None if ghost_above is None
            else np.array(ghost_above, copy=True),
        )

    def _events(self) -> list[TraceEvent]:
        if self._current is None:
            raise RuntimeError("no peer registered yet; nothing to record")
        return self._current.events

    def sweep_begin(self, rank: int, iteration: int) -> None:
        self._events().append(TraceEvent("begin", rank, iteration))

    def sweep_end(self, rank: int, iteration: int, diff: float) -> None:
        self._events().append(TraceEvent("end", rank, iteration, diff=diff))

    def ghost(self, rank: int, side: str, plane: np.ndarray,
              src_iteration: int) -> None:
        self._events().append(TraceEvent(
            "ghost", rank, 0, side=side,
            plane=np.array(plane, copy=True), src_iteration=src_iteration,
        ))

    def stop(self, rank: int, iteration: int) -> None:
        self._events().append(TraceEvent("stop", rank, iteration))

    def has_peer(self, rank: int) -> bool:
        """True if ``rank`` is registered in the trace being recorded —
        how a restarted solver knows to record a restore instead of
        opening a new trace."""
        return self._current is not None and rank in self._current.peers

    def restore(self, rank: int, iteration: int, block: np.ndarray,
                ghost_below: Optional[np.ndarray],
                ghost_above: Optional[np.ndarray]) -> None:
        if not self.has_peer(rank):
            raise RuntimeError(f"restore for unregistered peer {rank}")
        self._events().append(TraceEvent(
            "restore", rank, iteration,
            state={
                "block": np.array(block, copy=True),
                "ghost_below": None if ghost_below is None
                else np.array(ghost_below, copy=True),
                "ghost_above": None if ghost_above is None
                else np.array(ghost_above, copy=True),
            },
        ))


#: The one process global left on purpose: :func:`record_schedule` must
#: see solves that run on any resource context, including a
#: ``Campaign``'s private one, so the recorder cannot live on a context.
_active: Optional[TraceRecorder] = None


def active_recorder() -> Optional[TraceRecorder]:
    """The recorder the solver should report to, if any."""
    return _active


@contextlib.contextmanager
def record_schedule():
    """Record every solve executed in the ``with`` body.

    >>> with record_schedule() as rec:
    ...     run_job(job)                    # doctest: +SKIP
    >>> trace = rec.trace

    Nesting restores the outer recorder on exit (the inner one then
    holds only the inner runs).
    """
    global _active
    rec = TraceRecorder()
    prev, _active = _active, rec
    try:
        yield rec
    finally:
        _active = prev


# -- replay --------------------------------------------------------------------


@dataclasses.dataclass
class ReplayResult:
    """What a replay produced, aligned with the trace's "end" events."""

    #: (rank, iteration, diff) per collected sweep, in schedule order.
    diffs: list[tuple[int, int, float]]
    #: Final per-peer blocks (private copies).
    blocks: dict[int, np.ndarray]
    #: Post-sweep iterate copies, one per "end" event (only when the
    #: replay ran with ``capture_iterates=True``).
    iterates: Optional[list[np.ndarray]] = None

    def gather(self, ranges: Sequence[tuple[int, int]]) -> np.ndarray:
        """Assemble the full iterate from the per-peer blocks."""
        n = max(hi for _lo, hi in ranges)
        some = next(iter(self.blocks.values()))
        u = np.empty((n, some.shape[1], some.shape[2]), dtype=some.dtype)
        for rank, (lo, hi) in enumerate(sorted(ranges)):
            u[lo:hi] = self.blocks[rank]
        return u


def _build_states(problem_kind: str, n: int,
                  peers: Iterable[PeerSnapshot], delta: float,
                  dtype, local_sweep: str):
    """Per-peer BlockStates, seeded from the snapshots."""
    from ..solvers.distributed_richardson import get_problem
    from ..solvers.halo import BlockState

    peers = sorted(peers, key=lambda p: p.lo)
    problem = get_problem(problem_kind, n)
    states = {}
    try:
        for snap in peers:
            st = BlockState(
                problem=problem, lo=snap.lo, hi=snap.hi, delta=delta,
                dtype=dtype, local_sweep=local_sweep,
            )
            st.warm_start(snap.block)
            if st.ghost_below is not None and snap.ghost_below is not None:
                st.update_ghost_below(snap.ghost_below)
            if st.ghost_above is not None and snap.ghost_above is not None:
                st.update_ghost_above(snap.ghost_above)
            states[snap.rank] = st
    except BaseException:
        for st in states.values():
            st.release()
        raise
    return states


def replay_trace(trace: ScheduleTrace, capture_iterates: bool = False,
                 on_event=None) -> ReplayResult:
    """Re-execute a recorded schedule.

    Walks the event list exactly as recorded: "begin" dispatches the
    peer's split-phase sweep, "end" collects it, "ghost" installs the
    recorded plane bytes (so staleness — a delayed u^{ρ(p)} — is
    reproduced exactly, independent of what the replay's neighbours
    hold).  The per-sweep diffs, and with ``capture_iterates=True``
    every post-sweep block, come back for bit-level comparison against
    the recording.

    "restore" events (crash recovery) abort the rank's in-flight sweep,
    if any, and install the checkpointed block/ghosts — the abort ends
    post-rotation, so the subsequent sweeps are equivalent to the live
    path's fresh post-crash BlockState.

    ``on_event(event, states)``, when given, is called after each event
    is applied, with the live per-rank BlockState map — the invariant
    walkers (e.g. the scenario error-envelope check) hook in here.

    A malformed trace (double begin, end without begin, a ghost write
    into an in-flight peer) raises through the BlockState consistency
    guards — the same errors a buggy live driver would hit.
    """
    solve = trace.solve
    states = _build_states(
        solve["problem"], solve["n"], trace.peers.values(),
        delta=solve["delta"], dtype=solve["dtype"],
        local_sweep=solve.get("local_sweep", "gauss_seidel"),
    )
    diffs: list[tuple[int, int, float]] = []
    iterates: Optional[list[np.ndarray]] = [] if capture_iterates else None
    try:
        for ev in trace.events:
            if ev.kind == "begin":
                states[ev.rank].begin_sweep()
            elif ev.kind == "end":
                diff = states[ev.rank].finish_sweep()
                diffs.append((ev.rank, ev.iteration, diff))
                if iterates is not None:
                    iterates.append(np.array(states[ev.rank].block,
                                             copy=True))
            elif ev.kind == "ghost":
                st = states[ev.rank]
                if ev.side == "below":
                    st.update_ghost_below(ev.plane)
                else:
                    st.update_ghost_above(ev.plane)
            elif ev.kind == "restore":
                st = states[ev.rank]
                st.abort_sweep()
                st.warm_start(ev.state["block"])
                if st.ghost_below is not None \
                        and ev.state.get("ghost_below") is not None:
                    st.update_ghost_below(ev.state["ghost_below"])
                if st.ghost_above is not None \
                        and ev.state.get("ghost_above") is not None:
                    st.update_ghost_above(ev.state["ghost_above"])
            elif ev.kind != "stop":
                raise ValueError(f"unknown trace event kind {ev.kind!r}")
            if on_event is not None:
                on_event(ev, states)
        # A live abort (crash, churn) may interrupt a sweep between its
        # recorded "begin" and "end" — that sweep never landed, so drop
        # any dangling in-flight work just as the live teardown does.
        for st in states.values():
            st.abort_sweep()
        blocks = {rank: np.array(st.export_block(), copy=True)
                  for rank, st in states.items()}
    finally:
        for st in states.values():
            st.release()
    return ReplayResult(diffs=diffs, blocks=blocks, iterates=iterates)


# -- schedule fuzzing -----------------------------------------------------------


def random_schedule(seed: int, n_peers: int, n_ops: int = 60,
                    p_exchange: float = 0.4) -> list[tuple]:
    """A random *valid* split-phase schedule over ``n_peers`` peers.

    Ops are ``("begin", p)``, ``("end", p)`` and ``("xchg", src, dst)``
    (copy ``src``'s boundary plane facing ``dst`` into ``dst``'s
    ghost).  Validity is by construction: a peer begins only when idle,
    ends only when in flight, and no exchange reads or writes a peer
    whose sweep is in flight — the consistency rules the state machine
    enforces.  Every in-flight sweep is closed at the end, so the
    schedule leaves every peer idle.
    """
    rng = random.Random(seed)
    in_flight: set[int] = set()
    ops: list[tuple] = []
    for _ in range(n_ops):
        exchanges = [
            ("xchg", src, dst)
            for src in range(n_peers)
            for dst in (src - 1, src + 1)
            if 0 <= dst < n_peers
            and src not in in_flight and dst not in in_flight
        ]
        sweeps = [("end", p) if p in in_flight else ("begin", p)
                  for p in range(n_peers)]
        if exchanges and rng.random() < p_exchange:
            op = rng.choice(exchanges)
        else:
            op = rng.choice(sweeps)
        ops.append(op)
        if op[0] == "begin":
            in_flight.add(op[1])
        elif op[0] == "end":
            in_flight.discard(op[1])
    ops.extend(("end", p) for p in sorted(in_flight))
    return ops


class ScheduleHarness:
    """Execute explicit split-phase schedules outside the DES.

    The direct-drive counterpart of a recorded replay: per-peer
    :class:`BlockState` s, driven op by op, with the
    blocks, ghosts, and per-peer diff history exposed so tests can
    check order-independent invariants (error-envelope monotonicity,
    genuine convergence) against a reference solution.  Exchanges here
    read the *live* neighbour boundary — zero-latency, but at whatever
    schedule position the fuzz put them, which is exactly the arbitrary
    staleness the asynchronous model allows.
    """

    def __init__(self, problem_kind: str, n: int,
                 ranges: Sequence[tuple[int, int]],
                 delta: Optional[float] = None, dtype=None,
                 local_sweep: str = "gauss_seidel"):
        from ..solvers.distributed_richardson import get_problem

        problem = get_problem(problem_kind, n)
        if delta is None:
            delta = problem.jacobi_delta()
        self.n = n
        self.ranges = [tuple(r) for r in ranges]
        # _build_states seeds blocks from the snapshots; ghosts of None
        # are left at the BlockState default (the feasible start), which
        # is what a cold solver run starts from too.
        from ..numerics.tolerances import resolve_dtype

        u0 = problem.feasible_start().astype(resolve_dtype(dtype))
        peers = [
            PeerSnapshot(
                rank=k, lo=lo, hi=hi, block=u0[lo:hi],
                ghost_below=None, ghost_above=None,
            )
            for k, (lo, hi) in enumerate(self.ranges)
        ]
        self.states = _build_states(
            problem_kind, n, peers, delta=delta, dtype=dtype,
            local_sweep=local_sweep,
        )
        self.n_peers = len(self.states)
        self.diffs: dict[int, list[float]] = {p: [] for p in self.states}

    # -- op execution ------------------------------------------------------------

    def apply(self, op: tuple) -> Optional[float]:
        """Execute one schedule op; "end" ops return the diff."""
        kind = op[0]
        if kind == "begin":
            self.states[op[1]].begin_sweep()
            return None
        if kind == "end":
            diff = self.states[op[1]].finish_sweep()
            self.diffs[op[1]].append(diff)
            return diff
        if kind == "xchg":
            _tag, src, dst = op
            if dst == src + 1:
                self.states[dst].update_ghost_below(
                    self.states[src].last_plane)
            elif dst == src - 1:
                self.states[dst].update_ghost_above(
                    self.states[src].first_plane)
            else:
                raise ValueError(f"peers {src} and {dst} are not adjacent")
            return None
        raise ValueError(f"unknown schedule op {op!r}")

    def run(self, ops: Iterable[tuple]) -> "ScheduleHarness":
        for op in ops:
            self.apply(op)
        return self

    def sweep_round(self) -> float:
        """One fresh-exchange synchronous round; returns the max diff.
        The cleanup/termination probe of the fuzz suite."""
        for src in range(self.n_peers - 1):
            self.apply(("xchg", src, src + 1))
            self.apply(("xchg", src + 1, src))
        worst = 0.0
        for p in range(self.n_peers):
            self.apply(("begin", p))
        for p in range(self.n_peers):
            worst = max(worst, self.apply(("end", p)))
        return worst

    # -- state inspection --------------------------------------------------------

    def block(self, rank: int) -> np.ndarray:
        return np.asarray(self.states[rank].block)

    def gather(self) -> np.ndarray:
        some = self.block(0)
        u = np.empty((self.n, self.n, self.n), dtype=some.dtype)
        for rank, (lo, hi) in enumerate(self.ranges):
            u[lo:hi] = self.block(rank)
        return u

    def error_envelope(self, reference: np.ndarray) -> float:
        """max sup-norm distance to ``reference`` over every value any
        future sweep may read: owned blocks *and* ghost planes.  The
        asynchronous iteration theory says a sweep maps values inside
        the envelope to values inside the envelope (the operator is
        sup-norm non-expansive), so this must never grow — under any
        schedule."""
        worst = 0.0
        for rank, (lo, hi) in enumerate(self.ranges):
            st = self.states[rank]
            worst = max(worst, float(
                np.max(np.abs(np.asarray(st.block)
                              - reference[lo:hi].astype(st.dtype)))))
            if st.ghost_below is not None:
                worst = max(worst, float(
                    np.max(np.abs(st.ghost_below
                                  - reference[lo - 1].astype(st.dtype)))))
            if st.ghost_above is not None:
                worst = max(worst, float(
                    np.max(np.abs(st.ghost_above
                                  - reference[hi].astype(st.dtype)))))
        return worst

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        for st in self.states.values():
            st.release()

    def __enter__(self) -> "ScheduleHarness":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
