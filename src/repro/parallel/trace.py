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

:class:`Replay`
    the one schedule executor: per-peer
    :class:`~repro.solvers.halo.BlockState` s driven event by event,
    seeded from a trace's snapshots or (:meth:`Replay.cold`) from the
    feasible start, with the sup-norm error envelope
    (:meth:`Replay.error`) and the assembled iterate
    (:meth:`Replay.gather`);

:func:`replay_trace`
    re-execute a recorded schedule, returning every per-sweep diff so
    tests can compare replay against recording, bit for bit;

:func:`random_schedule`
    the schedule fuzz: *synthetic* schedules — arbitrary interleavings
    of split-phase sweeps and live boundary exchanges, valid by
    construction — to check the invariants that must hold under
    **any** ordering (the asynchronous convergence theory of the
    paper's eq. (5)): the sup-norm error envelope never grows,
    convergence is reached from any schedule prefix, and the
    split-phase state machine neither deadlocks nor permits a
    consistency-violating access (those raise instead).
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
from typing import Any, Optional, Sequence

import numpy as np

__all__ = [
    "TraceEvent",
    "PeerSnapshot",
    "ScheduleTrace",
    "TraceRecorder",
    "record_schedule",
    "active_recorder",
    "Replay",
    "replay_trace",
    "traces_equal",
    "assert_traces_equal",
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
      as the live crash path does;
    - ``"xchg"`` — synthetic schedules only (:func:`random_schedule`):
      the adjacent peer's live boundary plane is copied into ``rank``'s
      ``side`` ghost.
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


def _set_ghost(st, side: str, plane: np.ndarray) -> None:
    if side == "below":
        st.update_ghost_below(plane)
    else:
        st.update_ghost_above(plane)


def _install(st, block: np.ndarray, ghost_below: Optional[np.ndarray],
             ghost_above: Optional[np.ndarray]) -> None:
    """Seed ``st`` with a snapshot; a ghost of None keeps its start."""
    st.warm_start(block)
    if st.ghost_below is not None and ghost_below is not None:
        st.update_ghost_below(ghost_below)
    if st.ghost_above is not None and ghost_above is not None:
        st.update_ghost_above(ghost_above)


class Replay:
    """Per-peer :class:`~repro.solvers.halo.BlockState` s driven by
    :class:`TraceEvent` s: the one executor of recorded and synthetic
    schedules.

    ``Replay(trace)`` seeds the states from the trace's solve metadata
    and peer snapshots; :meth:`cold` starts them from the problem's
    feasible start instead, as a cold solve does.  :meth:`apply` runs
    one event:

    - "begin" dispatches the peer's split-phase sweep; "end" collects
      it, returns its diff and appends ``(rank, iteration, diff)`` to
      :attr:`diffs`;
    - "ghost" installs the recorded plane bytes, so staleness — a
      delayed u^{ρ(p)} — is reproduced exactly, whatever the
      neighbours hold now;
    - "xchg" copies the adjacent peer's *live* boundary plane into the
      ``side`` ghost: zero latency, but at whatever schedule position
      the fuzz put it, which is the arbitrary staleness the
      asynchronous model allows;
    - "restore" (crash recovery) aborts the rank's in-flight sweep, if
      any, and installs the checkpointed block and ghosts — the abort
      ends post-rotation, so later sweeps match the live path's fresh
      post-crash state;
    - "stop" is metadata only.

    A malformed schedule (double begin, end without begin, a ghost
    write into or a boundary read from an in-flight peer) raises
    through the BlockState consistency guards — the same errors a buggy
    live driver would hit.
    """

    def __init__(self, trace: ScheduleTrace):
        from ..solvers.distributed_richardson import get_problem
        from ..solvers.halo import BlockState

        solve = trace.solve
        problem = get_problem(solve["problem"], solve["n"])
        self.n = solve["n"]
        #: (rank, iteration, diff) per collected sweep, in schedule order.
        self.diffs: list[tuple[int, int, float]] = []
        self.states = {}
        try:
            for snap in sorted(trace.peers.values(), key=lambda p: p.lo):
                st = self.states[snap.rank] = BlockState(
                    problem=problem, lo=snap.lo, hi=snap.hi,
                    delta=solve["delta"], dtype=solve["dtype"],
                    local_sweep=solve.get("local_sweep", "gauss_seidel"),
                )
                _install(st, snap.block, snap.ghost_below, snap.ghost_above)
        except BaseException:
            self.close()
            raise
        # The peer across each side's plane boundary, for "xchg".
        self._neighbour = {}
        rank_at = {st.lo: rank for rank, st in self.states.items()}
        for rank, st in self.states.items():
            above = rank_at.get(st.hi)
            if above is not None:
                self._neighbour[rank, "above"] = self.states[above]
                self._neighbour[above, "below"] = st

    @classmethod
    def cold(cls, problem_kind: str, n: int,
             ranges: Sequence[tuple[int, int]],
             delta: Optional[float] = None, dtype=None,
             local_sweep: str = "gauss_seidel") -> "Replay":
        """States at the feasible start, rank ``k`` owning
        ``ranges[k]``: where a cold solve starts, and what the schedule
        fuzz drives (``delta`` defaults to the Jacobi step)."""
        from ..numerics.tolerances import resolve_dtype
        from ..solvers.distributed_richardson import get_problem

        problem = get_problem(problem_kind, n)
        if delta is None:
            delta = problem.jacobi_delta()
        u0 = problem.feasible_start().astype(resolve_dtype(dtype))
        return cls(ScheduleTrace(
            solve={"problem": problem_kind, "n": n, "delta": delta,
                   "dtype": dtype, "local_sweep": local_sweep},
            peers={k: PeerSnapshot(rank=k, lo=lo, hi=hi, block=u0[lo:hi],
                                   ghost_below=None, ghost_above=None)
                   for k, (lo, hi) in enumerate(ranges)},
        ))

    def apply(self, ev: TraceEvent) -> Optional[float]:
        """Run one event; an "end" returns its sweep's diff."""
        st = self.states[ev.rank]
        if ev.kind == "begin":
            st.begin_sweep()
        elif ev.kind == "end":
            diff = st.finish_sweep()
            self.diffs.append((ev.rank, ev.iteration, diff))
            return diff
        elif ev.kind == "ghost":
            _set_ghost(st, ev.side, ev.plane)
        elif ev.kind == "xchg":
            src = self._neighbour.get((ev.rank, ev.side))
            if src is None:
                raise ValueError(
                    f"peer {ev.rank} has no neighbour {ev.side!r}")
            _set_ghost(st, ev.side, src.last_plane if ev.side == "below"
                       else src.first_plane)
        elif ev.kind == "restore":
            st.abort_sweep()
            _install(st, ev.state["block"], ev.state.get("ghost_below"),
                     ev.state.get("ghost_above"))
        elif ev.kind != "stop":
            raise ValueError(f"unknown trace event kind {ev.kind!r}")
        return None

    def error(self, reference: np.ndarray,
              rank: Optional[int] = None) -> float:
        """Sup-norm distance to ``reference``, in float64, over every
        value a future sweep may read — owned block *and* ghost planes —
        of peer ``rank``, or of every peer.

        The asynchronous iteration theory (eq. (5)) says a sweep maps
        values inside this envelope to values inside it (the operator
        is sup-norm non-expansive), so no sweep may grow it, under any
        schedule."""
        worst = 0.0
        for st in (self.states.values() if rank is None
                   else (self.states[rank],)):
            worst = max(worst, float(np.max(np.abs(
                np.asarray(st.block, dtype=np.float64)
                - reference[st.lo:st.hi]))))
            if st.ghost_below is not None:
                worst = max(worst, float(np.max(np.abs(
                    np.asarray(st.ghost_below, dtype=np.float64)
                    - reference[st.lo - 1]))))
            if st.ghost_above is not None:
                worst = max(worst, float(np.max(np.abs(
                    np.asarray(st.ghost_above, dtype=np.float64)
                    - reference[st.hi]))))
        return worst

    def gather(self) -> np.ndarray:
        """The full iterate, assembled from the per-peer blocks."""
        some = next(iter(self.states.values()))
        u = np.empty((self.n, self.n, self.n), dtype=some.dtype)
        for st in self.states.values():
            u[st.lo:st.hi] = st.export_block()
        return u

    def close(self) -> None:
        """Join any sweep still in flight (its iterate stays in the
        block) and drop the sweep workspaces; the blocks stay valid."""
        for st in self.states.values():
            st.release()

    def __enter__(self) -> "Replay":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def replay_trace(trace: ScheduleTrace) -> Replay:
    """Re-execute a recorded schedule; returns the closed :class:`Replay`,
    whose :attr:`~Replay.diffs` and :meth:`~Replay.gather` tests compare
    with the recording, bit for bit.

    A live abort (crash, churn) may interrupt a sweep between its
    recorded "begin" and "end"; that sweep never landed, and closing
    the replay joins it just as the live teardown does.
    """
    with Replay(trace) as replay:
        for ev in trace.events:
            replay.apply(ev)
    return replay


# -- schedule fuzzing -----------------------------------------------------------


def random_schedule(seed: int, n_peers: int, n_ops: int = 60,
                    p_exchange: float = 0.4) -> list[TraceEvent]:
    """A random *valid* split-phase schedule over ``n_peers`` peers, for
    :meth:`Replay.cold` states (rank ``k`` owns the ``k``-th range).

    Events are "begin", "end" and "xchg".  Validity is by
    construction: a peer begins only when idle, ends only when in
    flight, and no exchange reads or writes a peer whose sweep is in
    flight — the consistency rules the state machine enforces.  Every
    in-flight sweep is closed at the end, so the schedule leaves every
    peer idle.
    """
    rng = random.Random(seed)
    sweeps = [0] * n_peers
    in_flight: set[int] = set()
    events: list[TraceEvent] = []
    for _ in range(n_ops):
        exchanges = [
            TraceEvent("xchg", dst, 0,
                       side="below" if dst == src + 1 else "above")
            for src in range(n_peers)
            for dst in (src - 1, src + 1)
            if 0 <= dst < n_peers
            and src not in in_flight and dst not in in_flight
        ]
        if exchanges and rng.random() < p_exchange:
            events.append(rng.choice(exchanges))
            continue
        p = rng.choice(range(n_peers))
        if p in in_flight:
            in_flight.discard(p)
            events.append(TraceEvent("end", p, sweeps[p]))
        else:
            in_flight.add(p)
            sweeps[p] += 1
            events.append(TraceEvent("begin", p, sweeps[p]))
    events.extend(TraceEvent("end", p, sweeps[p]) for p in sorted(in_flight))
    return events
