"""Schedule record, replay and fuzz for split-phase block sweeps.

Asynchronous and hybrid solves are order-sensitive, so this package
captures the schedule a live DES solve ran under and re-executes it
outside the DES:

:class:`TraceRecorder` / :func:`record_schedule`
    record the (peer, iteration, ghost-exchange) schedule of a solve;

:class:`Replay`
    the one executor: per-peer
    :class:`~repro.solvers.halo.BlockState` s driven by schedule
    events, from a trace's snapshots or (:meth:`Replay.cold`) the
    feasible start, with the sup-norm error envelope and the gathered
    iterate;

:func:`replay_trace`
    run a recorded schedule through a :class:`Replay`, bit for bit;

:func:`random_schedule`
    synthetic schedules, valid by construction, to check the
    order-independent invariants of the asynchronous iteration;

:func:`save_trace` / :func:`load_trace`
    the on-disk trace format the ``replay`` CLI reads.
"""

from .trace import (
    Replay,
    ScheduleTrace,
    TraceRecorder,
    assert_traces_equal,
    random_schedule,
    record_schedule,
    replay_trace,
    traces_equal,
)
from .trace_io import load_trace, save_trace

__all__ = [
    "Replay",
    "ScheduleTrace",
    "TraceRecorder",
    "assert_traces_equal",
    "random_schedule",
    "record_schedule",
    "replay_trace",
    "traces_equal",
    "load_trace",
    "save_trace",
]
