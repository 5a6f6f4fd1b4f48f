"""Schedule record, replay and fuzz for split-phase block sweeps.

Asynchronous and hybrid solves are order-sensitive, so this package
captures the schedule a live DES solve ran under and re-executes it
outside the DES:

:class:`TraceRecorder` / :func:`record_schedule`
    record the (peer, iteration, ghost-exchange) schedule of a solve;

:func:`replay_trace`
    re-run a recorded schedule against per-peer
    :class:`~repro.solvers.halo.BlockState` objects, bit for bit;

:class:`ScheduleHarness` / :func:`random_schedule`
    drive the same states through synthetic schedules to check the
    order-independent invariants of the asynchronous iteration;

:func:`save_trace` / :func:`load_trace`
    the on-disk trace format the ``replay`` CLI reads.
"""

from .trace import (
    ScheduleHarness,
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
    "ScheduleHarness",
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
