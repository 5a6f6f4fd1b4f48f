"""Trace comparison, recorder bookkeeping and schedule-driver guards.

A replay check is only as strong as the comparison behind it: every way
two schedules can diverge — snapshots, event metadata, diffs, plane
bytes, restored state — must make ``traces_equal`` false and name the
first divergence.  The recorder and the schedule drivers must refuse
malformed input loudly rather than record or replay something else.
"""

import dataclasses

import numpy as np
import pytest

from repro.parallel.trace import (
    PeerSnapshot,
    ScheduleHarness,
    ScheduleTrace,
    TraceEvent,
    TraceRecorder,
    active_recorder,
    assert_traces_equal,
    record_schedule,
    replay_trace,
    traces_equal,
)
from repro.solvers.distributed_richardson import get_problem

N = 4


def _solve():
    return {"problem": "membrane", "n": N, "n_peers": 2,
            "delta": get_problem("membrane", N).jacobi_delta(),
            "dtype": "float64", "local_sweep": "gauss_seidel",
            "scheme": "asynchronous", "tol": 1e-4}


def _recorded():
    """Two peers, one sweep, one ghost write, one crash restore."""
    u0 = get_problem("membrane", N).feasible_start()
    rec = TraceRecorder()
    rec.register_peer(0, 0, 2, block=u0[:2], ghost_below=None,
                      ghost_above=u0[2], solve=_solve())
    rec.register_peer(1, 2, N, block=u0[2:], ghost_below=u0[1],
                      ghost_above=None, solve=_solve())
    rec.sweep_begin(0, 1)
    rec.sweep_end(0, 1, 0.25)
    rec.ghost(1, "below", np.full((N, N), 0.5), src_iteration=1)
    rec.restore(1, 0, block=u0[2:], ghost_below=u0[1], ghost_above=None)
    rec.stop(0, 1)
    return rec.trace


def _with_peer(trace, rank, **changes):
    peers = dict(trace.peers)
    peers[rank] = dataclasses.replace(peers[rank], **changes)
    return dataclasses.replace(trace, peers=peers)


def _with_event(trace, i, **changes):
    events = list(trace.events)
    events[i] = dataclasses.replace(events[i], **changes)
    return dataclasses.replace(trace, events=events)


def _drop_peer(trace):
    return dataclasses.replace(trace, peers={0: trace.peers[0]})


def _shift_range(trace):
    return _with_peer(trace, 1, lo=1)


def _perturb_block(trace):
    block = trace.peers[0].block.copy()
    block[0, 1, 1] += 1e-12
    return _with_peer(trace, 0, block=block)


def _narrow_ghost(trace):
    return _with_peer(trace, 0, ghost_above=trace.peers[0].ghost_above
                      .astype(np.float32))


def _drop_event(trace):
    return dataclasses.replace(trace, events=trace.events[:-1])


def _flip_side(trace):
    return _with_event(trace, 2, side="above")


def _change_diff(trace):
    return _with_event(trace, 1, diff=0.25 + 2 ** -40)


def _change_plane(trace):
    return _with_event(trace, 2, plane=np.full((N, N), 0.75))


def _drop_restore_state(trace):
    return _with_event(trace, 3, state=None)


def _change_restore_ghost(trace):
    state = dict(trace.events[3].state)
    state["ghost_below"] = state["ghost_below"] + 1.0
    return _with_event(trace, 3, state=state)


DIVERGENCES = [
    (_drop_peer, "peer ranks differ"),
    (_shift_range, "peer 1 range differs"),
    (_perturb_block, "peer 0 initial block differs"),
    (_narrow_ghost, "peer 0 initial ghosts differ"),
    (_drop_event, "event counts differ"),
    (_flip_side, "event 2 differs"),
    (_change_diff, "event 1 diff differs"),
    (_change_plane, "event 2 ghost plane bytes differ"),
    (_drop_restore_state, "event 3 restore state presence differs"),
    (_change_restore_ghost, "event 3 restore state 'ghost_below' differs"),
]


@pytest.mark.parametrize("mutate, message", DIVERGENCES,
                         ids=[m.__name__.lstrip("_") for m, _ in DIVERGENCES])
def test_every_divergence_is_found_and_named(mutate, message):
    original = _recorded()
    changed = mutate(_recorded())
    assert traces_equal(original, original)
    assert not traces_equal(original, changed)
    assert not traces_equal(changed, original)
    with pytest.raises(AssertionError, match=message):
        assert_traces_equal(original, changed)


class TestRecorder:
    def test_recording_before_registration_is_refused(self):
        rec = TraceRecorder()
        with pytest.raises(RuntimeError, match="no peer registered"):
            rec.sweep_begin(0, 1)

    def test_inconsistent_solve_metadata_is_refused(self):
        rec = TraceRecorder()
        block = np.zeros((2, N, N))
        rec.register_peer(0, 0, 2, block=block, ghost_below=None,
                          ghost_above=None, solve=_solve())
        other = dict(_solve(), tol=1e-6)
        with pytest.raises(ValueError, match="inconsistent solve metadata"):
            rec.register_peer(1, 2, 4, block=block, ghost_below=None,
                              ghost_above=None, solve=other)

    def test_restore_of_unregistered_peer_is_refused(self):
        rec = _recorder_with_peer0()
        assert rec.has_peer(0) and not rec.has_peer(1)
        with pytest.raises(RuntimeError, match="unregistered peer 1"):
            rec.restore(1, 0, block=np.zeros((2, N, N)),
                        ghost_below=None, ghost_above=None)

    def test_snapshots_and_planes_are_private_copies(self):
        block = np.zeros((2, N, N))
        plane = np.zeros((N, N))
        rec = TraceRecorder()
        rec.register_peer(0, 0, 2, block=block, ghost_below=None,
                          ghost_above=plane, solve=_solve())
        rec.ghost(0, "above", plane, src_iteration=3)
        block += 1.0
        plane += 1.0
        trace = rec.trace
        assert not trace.peers[0].block.any()
        assert not trace.peers[0].ghost_above.any()
        assert not trace.events[0].plane.any()

    def test_nested_recording_restores_the_outer_recorder(self):
        assert active_recorder() is None
        with record_schedule() as outer:
            with record_schedule() as inner:
                assert active_recorder() is inner
            assert active_recorder() is outer
        assert active_recorder() is None


def _recorder_with_peer0():
    rec = TraceRecorder()
    rec.register_peer(0, 0, 2, block=np.zeros((2, N, N)), ghost_below=None,
                      ghost_above=None, solve=_solve())
    return rec


class TestReplayGuards:
    def test_recorded_trace_replays(self):
        trace = _recorded()
        # The recorded diff is synthetic; the replay computes its own.
        replay = replay_trace(trace)
        assert [(r, it) for r, it, _ in replay.diffs] == [(0, 1)]
        assert replay.gather(trace.ranges()).shape == (N, N, N)

    def test_unknown_event_kind_is_refused(self):
        trace = _recorded()
        trace.events.insert(1, TraceEvent("teleport", 0, 1))
        with pytest.raises(ValueError, match="unknown trace event kind"):
            replay_trace(trace)

    def test_end_without_begin_raises_through_the_state_guards(self):
        trace = _recorded()
        del trace.events[0]
        with pytest.raises(RuntimeError, match="no sweep in flight"):
            replay_trace(trace)

    def test_ghost_write_into_an_in_flight_peer_raises(self):
        trace = _recorded()
        # Rank 1 dispatches a sweep just before its recorded ghost write.
        trace.events.insert(2, TraceEvent("begin", 1, 1))
        with pytest.raises(RuntimeError, match="in flight"):
            replay_trace(trace)

    def test_bad_snapshot_shape_is_refused(self):
        trace = _recorded()
        bad = ScheduleTrace(solve=trace.solve, peers=dict(trace.peers),
                            events=[])
        bad.peers[1] = PeerSnapshot(rank=1, lo=2, hi=N,
                                    block=np.zeros((1, N, N)),
                                    ghost_below=None, ghost_above=None)
        with pytest.raises(ValueError, match="checkpoint shape"):
            replay_trace(bad)


class TestHarnessGuards:
    def _harness(self):
        return ScheduleHarness("membrane", 6, ranges=[(0, 2), (2, 4), (4, 6)])

    def test_exchange_between_non_neighbours_is_refused(self):
        with self._harness() as h:
            with pytest.raises(ValueError, match="not adjacent"):
                h.apply(("xchg", 0, 2))

    def test_unknown_op_is_refused(self):
        with self._harness() as h:
            with pytest.raises(ValueError, match="unknown schedule op"):
                h.apply(("sleep", 0))

    def test_run_applies_ops_in_order_and_chains(self):
        with self._harness() as h:
            assert h.run([("begin", 1), ("end", 1), ("xchg", 1, 0)]) is h
            assert len(h.diffs[1]) == 1 and h.diffs[0] == []
            np.testing.assert_array_equal(h.states[0].ghost_above,
                                          h.block(1)[0])
