"""Schedule record/replay and fuzz for asynchronous stepping.

Asynchronous schemes are order-sensitive, so a solve is checked *under
a fixed schedule*, not just end to end: record the (peer, iteration,
ghost-exchange) schedule of a live run, replay it against fresh block
states, and compare sweep for sweep with the recording.  The seeded
schedule fuzz then checks the invariants that must
hold under **any** ordering: the sup-norm error envelope never grows,
convergence is reached from every schedule prefix, a verified STOP is
never declared while a peer is unconverged, and the split-phase state
machine neither deadlocks nor permits a consistency-violating access.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import P2PDC
from repro.numerics.convergence import DiffCriterion
from repro.numerics.richardson import projected_richardson
from repro.parallel.trace import (
    ScheduleHarness,
    TraceEvent,
    assert_traces_equal,
    random_schedule,
    record_schedule,
    replay_trace,
    traces_equal,
)
from repro.simnet import Simulator, nicta_testbed
from repro.solvers import ObstacleApplication
from repro.solvers.distributed_richardson import get_problem

N = 12
TOL = 1e-4


def solve(scheme, n_peers=3, extra=None, record=False):
    sim = Simulator()
    net = nicta_testbed(sim, n_peers)
    env = P2PDC(sim, net)
    env.register_everywhere(ObstacleApplication())
    params = {"n": N, "tol": TOL}
    if extra:
        params.update(extra)

    def run():
        return env.run_to_completion("obstacle", params=params,
                                     n_peers=n_peers, scheme=scheme,
                                     timeout=1e6)

    if not record:
        return run()
    with record_schedule() as rec:
        result = run()
    return result, rec.trace


# -- recorded replay == the recording ------------------------------------------------


@pytest.mark.parametrize("scheme", ["asynchronous", "hybrid"])
def test_replay_matches_recording(scheme, repro_dtype):
    run, trace = solve(scheme, record=True,
                       extra={"dtype": repro_dtype.name})
    assert trace.n_sweeps == sum(r.relaxations for r in run.output.per_peer)
    assert run.output.u.dtype == repro_dtype

    replay = replay_trace(trace, capture_iterates=True)

    # Replay reproduces the recording: every per-sweep diff bit-equal.
    recorded = [(ev.rank, ev.iteration, ev.diff)
                for ev in trace.events if ev.kind == "end"]
    assert replay.diffs == recorded
    # One post-sweep iterate per recorded sweep, at the solve's dtype.
    assert len(replay.iterates) == len(recorded)
    assert all(it.dtype == repro_dtype for it in replay.iterates)
    # And the assembled result is the live run's iterate, bit for bit.
    assert np.array_equal(replay.gather(trace.ranges()), run.output.u)


def test_recording_is_deterministic():
    """Two recordings of one configuration are the same schedule —
    the DES is deterministic, and the recorder must not perturb it."""
    _, a = solve("asynchronous", record=True)
    _, b = solve("asynchronous", record=True)
    assert_traces_equal(a, b)


def test_traces_differ_across_schemes():
    """Sanity: the equality helper can tell schedules apart."""
    _, a = solve("asynchronous", record=True)
    _, b = solve("synchronous", record=True)
    assert not traces_equal(a, b)


def test_synchronous_sweeps_are_split_phase():
    """Every scheme steps split-phase: a synchronous peer's sweep stays
    in flight across its compute charge, so neighbours dispatch theirs
    before it is collected."""
    _, trace = solve("synchronous", record=True)
    in_flight, most = set(), 0
    for ev in trace.events:
        if ev.kind == "begin":
            in_flight.add(ev.rank)
            most = max(most, len(in_flight))
        elif ev.kind == "end":
            in_flight.discard(ev.rank)
    assert most > 1


def test_synchronous_trace_replays():
    run, trace = solve("synchronous", record=True)
    recorded = [(ev.rank, ev.iteration, ev.diff)
                for ev in trace.events if ev.kind == "end"]
    replay = replay_trace(trace)
    assert replay.diffs == recorded
    assert np.array_equal(replay.gather(trace.ranges()), run.output.u)


def test_recorder_segments_multiple_runs():
    with record_schedule() as rec:
        solve("asynchronous")
        solve("asynchronous")
    assert len(rec.all_traces()) == 2
    assert_traces_equal(rec.all_traces()[0], rec.all_traces()[1])
    with pytest.raises(ValueError, match="2 traces"):
        rec.trace


# -- malformed schedules raise through the consistency guards ------------------------


def _tiny_trace():
    _, trace = solve("asynchronous", n_peers=2, record=True)
    return trace


class TestGhostPlaneConsistencyRules:
    def test_double_begin_raises(self):
        trace = _tiny_trace()
        bad = dataclasses.replace(
            trace, events=[TraceEvent("begin", 0, 1),
                           TraceEvent("begin", 0, 2)])
        with pytest.raises(RuntimeError, match="already in flight"):
            replay_trace(bad)

    def test_end_without_begin_raises(self):
        trace = _tiny_trace()
        bad = dataclasses.replace(trace, events=[TraceEvent("end", 0, 1)])
        with pytest.raises(RuntimeError, match="no sweep in flight"):
            replay_trace(bad)

    def test_ghost_write_into_inflight_peer_raises(self):
        trace = _tiny_trace()
        plane = np.zeros((N, N))
        bad = dataclasses.replace(
            trace,
            events=[TraceEvent("begin", 0, 1),
                    TraceEvent("ghost", 0, 0, side="above", plane=plane,
                               src_iteration=1)])
        with pytest.raises(RuntimeError, match="in flight"):
            replay_trace(bad)

    def test_boundary_read_from_inflight_peer_raises(self):
        with ScheduleHarness("membrane", 8, [(0, 4), (4, 8)]) as h:
            h.apply(("begin", 0))
            with pytest.raises(RuntimeError, match="in flight"):
                h.apply(("xchg", 0, 1))
            h.apply(("end", 0))

    def test_export_while_inflight_raises(self):
        with ScheduleHarness("membrane", 8, [(0, 4), (4, 8)]) as h:
            h.apply(("begin", 0))
            with pytest.raises(RuntimeError, match="in flight"):
                h.states[0].export_block()
            h.apply(("end", 0))


# -- seeded schedule fuzz: order-independent invariants ------------------------------

FUZZ_N = 8
FUZZ_RANGES = [(0, 3), (3, 6), (6, FUZZ_N)]
FUZZ_TOL = 1e-5
FUZZ_SEEDS = list(range(30))


@pytest.fixture(scope="module")
def reference_solution():
    problem = get_problem("membrane", FUZZ_N)
    ref = projected_richardson(problem, tol=1e-12, max_relaxations=100_000)
    assert ref.converged
    return ref.u


def _run_fuzz(seed, reference):
    """Random schedule prefix, then a verified-termination probe.

    Invariants asserted, for any schedule the generator emits:

    1. the sup-norm error envelope (blocks + ghosts vs the reference
       solution) never grows — the asynchronous-convergence property
       behind eq. (5), which holds bit-exactly because the block
       operator is sup-norm non-expansive;
    2. no deadlock: the state machine runs the whole schedule and the
       termination probe completes within a bounded number of rounds;
    3. no STOP while any peer is unconverged: STOP is only declared
       after a verify round on *fresh* exchanges, and it is genuine —
       every subsequent round stays below tolerance for every peer.
    """
    ops = random_schedule(seed, n_peers=len(FUZZ_RANGES), n_ops=60)
    with ScheduleHarness("membrane", FUZZ_N, FUZZ_RANGES) as h:
        criteria = {p: DiffCriterion(FUZZ_TOL, consecutive=3)
                    for p in h.states}
        converged = {p: False for p in h.states}
        envelope = h.error_envelope(reference)
        for op in ops:
            diff = h.apply(op)
            if diff is not None:
                converged[op[1]] = criteria[op[1]].check(diff)
            new_env = h.error_envelope(reference)
            assert new_env <= envelope, (
                f"error envelope grew after {op}: {envelope} -> {new_env}"
            )
            envelope = new_env
        # Termination probe: round-robin until every peer's streak
        # criterion holds, then verify on fresh exchanges.
        stopped = False
        for _round in range(5000):
            worst = h.sweep_round()
            for p, criterion in criteria.items():
                converged[p] = criterion.check(h.diffs[p][-1])
            if all(converged.values()):
                # Verify round: fresh exchange happened inside
                # sweep_round, so a sub-tol worst diff is genuine.
                if worst < FUZZ_TOL:
                    stopped = True
                    break
        assert stopped, "termination probe did not converge (deadlock?)"
        # No STOP while unconverged: after the verified STOP, every
        # peer keeps moving less than tol, indefinitely.
        for _ in range(3):
            assert h.sweep_round() < FUZZ_TOL
        final = np.max(np.abs(h.gather() - reference))
        assert final <= envelope + 1e-15
        return h.gather()


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_schedule_fuzz_invariants_inline(seed, reference_solution):
    _run_fuzz(seed, reference_solution)


def test_random_schedule_is_valid_and_balanced():
    for seed in range(10):
        ops = random_schedule(seed, n_peers=3, n_ops=50)
        in_flight = set()
        for op in ops:
            if op[0] == "begin":
                assert op[1] not in in_flight
                in_flight.add(op[1])
            elif op[0] == "end":
                assert op[1] in in_flight
                in_flight.discard(op[1])
            else:
                assert op[1] not in in_flight and op[2] not in in_flight
        assert not in_flight, "schedule left sweeps in flight"
