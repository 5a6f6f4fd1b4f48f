"""Compiled sweeps on the worker pool: same bits, safe lifecycles.

``BlockState.begin_sweep`` queues a compiled sweep on the library's
worker threads and ``finish_sweep`` joins it.  Here: many sweeps in
flight at once and finished in any order, and several Python threads
dispatching at once, give the numpy oracle's bits on each instruction-
set body and dtype; ``abort_sweep``, ``release`` and a dropped state
join the sweep before its arrays can go; a process forked after the
pool ran, or while a sweep is in flight, sweeps in the child; one
usable CPU means no worker at all, same bits; and the kernel telemetry
counts each sweep once, with the caller's join wait beside it.
"""

import gc
import os
import random
import signal
import subprocess
import sys
import textwrap
import threading
import time
import weakref

import numpy as np
import pytest

from repro.numerics import _ckernels, kernels
from repro.numerics.obstacle import membrane_problem, torsion_problem
from repro.resources import ResourceContext
from repro.solvers.halo import BlockState

from test_kernel_backends import (  # same-directory module (pytest prepend mode)
    SRC, same_bits)

NUMPY_KERNELS = {"jacobi": kernels._jacobi_numpy,
                 "gauss_seidel": kernels._gauss_seidel_numpy}

#: Grid side of the bit tests.
N = 48
#: Grid side of the lifecycle tests: a worker is still relaxing a block
#: of it (about a millisecond) while the caller goes on.
BIG = 96


def seeded_state(problem, lo, hi, dtype="float64",
                 local_sweep="gauss_seidel", seed=0, resources=None):
    """A BlockState with a noisy block and noisy ghosts."""
    state = BlockState(problem=problem, lo=lo, hi=hi,
                       delta=problem.jacobi_delta(), dtype=dtype,
                       local_sweep=local_sweep, resources=resources)
    rng = np.random.default_rng(seed)
    noise = rng.random(state.block.shape).astype(state.dtype)
    state.warm_start(state.block + noise)
    n = problem.grid.n
    if state.ghost_below is not None:
        state.update_ghost_below(rng.random((n, n)).astype(state.dtype))
    if state.ghost_above is not None:
        state.update_ghost_above(rng.random((n, n)).astype(state.dtype))
    return state


def oracle(state):
    """(diff, iterate) of the state's next sweep by the numpy kernel,
    on copies: what an inline sweep gives."""
    ws = state._workspace
    want = ws.rotation_buffer()
    ghosts = [None if g is None else g.copy()
              for g in (state.ghost_below, state.ghost_above)]
    diff = NUMPY_KERNELS[state.local_sweep](ws, state.block.copy(), want,
                                            *ghosts)
    return diff, want


def blocks(n, k):
    """k plane ranges splitting [0, n)."""
    edges = np.linspace(0, n, k + 1).astype(int)
    return list(zip(edges[:-1], edges[1:]))


# -- bits ---------------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 4, 8])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("local_sweep", ["gauss_seidel", "jacobi"])
def test_sweeps_in_flight_together_match_numpy(isa_body, k, dtype,
                                               local_sweep):
    """k blocks all begun before any is finished, finished in shuffled
    order, three rounds: every diff and iterate is the oracle's."""
    problem = torsion_problem(N)
    states = [seeded_state(problem, lo, hi, dtype, local_sweep, seed=lo)
              for lo, hi in blocks(N, k)]
    assert all(s._workspace._compiled.kernels["jacobi"].__name__.endswith(
        "_avx2") == (isa_body == "avx2") for s in states)
    order = random.Random(k).sample(range(k), k)
    for _ in range(3):
        wanted = [oracle(s) for s in states]
        for s in states:
            s.begin_sweep()
        assert all(s.sweep_in_flight for s in states)
        for i in order:
            want_diff, want = wanted[i]
            assert states[i].finish_sweep() == want_diff
            assert same_bits(states[i].block, want)


def test_threads_dispatching_at_once_get_the_same_bits(compiled_kernels):
    """A daemon's scheduler thread and inline solves sweep at the same
    time — four threads on fewer cores, switching every 10 µs: each
    gets exactly what it gets alone."""
    problem = membrane_problem(N)
    seeds = (1, 2, 3, 4)

    def run(states, barrier=None):
        if barrier is not None:
            barrier.wait()
        diffs = []
        for _ in range(6):
            for s in states:
                s.begin_sweep()
            diffs.append([s.finish_sweep() for s in states])
        return diffs, [s.block.copy() for s in states]

    def fresh(seed):
        return [seeded_state(problem, lo, hi, seed=seed + lo)
                for lo, hi in blocks(N, 3)]

    alone = [run(fresh(seed)) for seed in seeds]
    barrier = threading.Barrier(len(seeds))
    together = [None] * len(seeds)

    def thread(i, seed):
        together[i] = run(fresh(seed), barrier)

    threads = [threading.Thread(target=thread, args=(i, seed))
               for i, seed in enumerate(seeds)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for (want_diffs, want), (got_diffs, got) in zip(alone, together):
        assert got_diffs == want_diffs
        assert all(same_bits(a, b) for a, b in zip(got, want))


affinity = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                              reason="no CPU affinity masks here")


@affinity
def test_one_usable_cpu_means_no_worker_and_the_same_bits(compiled_kernels):
    """Pinned to one CPU the pool has no worker, so every sweep runs at
    join on the caller's thread: same bits as the oracle."""
    script = textwrap.dedent("""
        import numpy as np
        from repro.numerics import _ckernels, kernels
        from repro.numerics.obstacle import membrane_problem
        from repro.solvers.halo import BlockState
        assert _ckernels.pool_workers() == 0
        problem = membrane_problem(24)
        states = [BlockState(problem=problem, lo=lo, hi=hi,
                             delta=problem.jacobi_delta())
                  for lo, hi in ((0, 12), (12, 24))]
        for _ in range(3):
            wanted = []
            for s in states:
                want = s._workspace.rotation_buffer()
                wanted.append((kernels._gauss_seidel_numpy(
                    s._workspace, s.block, want, s.ghost_below,
                    s.ghost_above), want))
                s.begin_sweep()
            for s, (diff, want) in zip(reversed(states), reversed(wanted)):
                assert s.finish_sweep() == diff
                assert np.array_equal(s.block.view(np.uint8),
                                      want.view(np.uint8))
        print("ok")
    """)
    cpu = min(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


@affinity
def test_the_worker_count_is_derived_from_the_usable_cpus():
    assert _ckernels.pool_workers() == len(os.sched_getaffinity(0)) - 1


# -- lifecycle ----------------------------------------------------------------


def test_a_workspace_holds_one_sweep_in_flight(compiled_kernels):
    """A second begin, or a join with nothing started, raises instead
    of corrupting the queue or waiting forever."""
    problem = membrane_problem(6)
    ws = kernels.SweepWorkspace(problem, problem.jacobi_delta())
    u = problem.feasible_start()
    for finish in (ws._compiled.join, lambda: kernels.finish_block_sweep(ws)):
        with pytest.raises(RuntimeError, match="in flight"):
            finish()
    kernels.begin_block_sweep(ws, u, ws.rotation_buffer(), None, None)
    with pytest.raises(RuntimeError, match="already in flight"):
        kernels.begin_block_sweep(ws, u, ws.rotation_buffer(), None, None)
    with pytest.raises(RuntimeError, match="already in flight"):
        ws._compiled.start("jacobi", u, ws.rotation_buffer(), None, None)
    assert kernels.finish_block_sweep(ws) > 0.0


@pytest.mark.parametrize("stop", ["abort_sweep", "release"])
def test_stopping_mid_flight_joins_and_keeps_the_inline_bits(
        compiled_kernels, stop):
    problem = membrane_problem(BIG)
    state = seeded_state(problem, 8, 72)
    _diff, want = oracle(state)
    state.begin_sweep()
    getattr(state, stop)()
    assert not state.sweep_in_flight
    assert same_bits(state.export_block(), want)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_a_dropped_state_in_flight_leaves_the_job_its_arrays(
        compiled_kernels, dtype):
    """The job holds the arrays, the argument block and the fields it
    points into (float32 ones are the workspace's own casts): with the
    state gone they stay alive, and the sweep's result is intact."""
    problem = torsion_problem(BIG)
    state = seeded_state(problem, 8, 72, dtype)
    diff, want = oracle(state)
    state.begin_sweep()
    ws = state._workspace
    job = ws._compiled
    alive = [weakref.ref(a) for a in (
        state.block, state._next_block, state.ghost_below,
        state.ghost_above, job.params, ws.lower, ws.upper)]
    del ws
    state.cycle = state  # only the collector can free it
    del state
    gc.collect()
    assert all(ref() is not None for ref in alive)
    nxt = alive[1]()
    assert job.join() == diff
    assert same_bits(nxt, want)
    del nxt, job
    gc.collect()
    assert all(ref() is None for ref in alive)


def test_the_collector_frees_a_sweep_in_flight_only_after_joining_it(
        compiled_kernels):
    """An unreachable state with a sweep in flight: its workspace joins
    the sweep before any of the sweep's arrays is freed."""
    problem = membrane_problem(BIG)
    state = seeded_state(problem, 8, 72)
    state.begin_sweep()
    job = state._workspace._compiled.job  # the C struct alone
    seen = []
    for array in (state.block, state._next_block, state.ghost_below,
                  state.ghost_above):
        weakref.finalize(array, lambda: seen.append(
            (job.state, job.seconds)))
    del array
    state.cycle = state
    del state
    gc.collect()
    assert len(seen) == 4
    assert all(st == 0 and seconds > 0.0 for st, seconds in seen)


def wait_for(pid, timeout=60.0):
    """The exit status of child ``pid``; kills it past ``timeout``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail("the forked child hung")


def fork_and_sweep(in_flight=None):
    """Fork; the child finishes ``in_flight`` (a state it inherits
    mid-sweep), then sweeps a fresh block, checking both against the
    oracle.  The child's exit status."""
    problem = membrane_problem(24)
    fresh = seeded_state(problem, 0, 12, seed=5)
    fresh_want = oracle(fresh)
    pid = os.fork()
    if pid == 0:  # the child: leave through os._exit only
        ok = False
        try:
            if in_flight is not None:
                state, (diff, want) = in_flight
                assert state.finish_sweep() == diff
                assert same_bits(state.block, want)
            assert fresh.sweep() == fresh_want[0]
            ok = same_bits(fresh.block, fresh_want[1])
        finally:
            os._exit(0 if ok else 1)
    return wait_for(pid)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_a_child_forked_after_the_pool_ran_sweeps(compiled_kernels):
    problem = membrane_problem(24)
    seeded_state(problem, 0, 24).sweep()  # the workers have started
    assert fork_and_sweep() == 0


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_a_child_forked_with_sweeps_in_flight_sweeps(compiled_kernels):
    """Another thread keeps sweeps in flight while this one forks with
    one of its own begun: the child finishes the inherited sweep and
    runs a fresh one, with the oracle's bits."""
    problem = membrane_problem(BIG)
    stop = threading.Event()

    def busy():
        state = seeded_state(problem, 0, BIG, seed=9)
        while not stop.is_set():
            state.begin_sweep()
            state.finish_sweep()

    thread = threading.Thread(target=busy)
    thread.start()
    try:
        mine = seeded_state(problem, 8, 72)
        want = oracle(mine)
        mine.begin_sweep()
        assert fork_and_sweep((mine, want)) == 0
        assert mine.finish_sweep() == want[0]
        assert same_bits(mine.block, want[1])
    finally:
        stop.set()
        thread.join(timeout=60)


# -- telemetry ----------------------------------------------------------------


def test_each_sweep_is_observed_once_with_its_join_wait(compiled_kernels):
    """Sweeps in flight together still count one sweep and one
    duration each, and each join adds one wait."""
    ctx = ResourceContext(name="pool-telemetry")
    problem = membrane_problem(N)
    states = [seeded_state(problem, lo, hi, resources=ctx)
              for lo, hi in blocks(N, 4)]
    for _ in range(5):
        for s in states:
            s.begin_sweep()
        for s in states:
            s.finish_sweep()
    snap = ctx.telemetry.snapshot()
    key = ('{backend="c",isa="%s",order="gauss_seidel"}'
           % compiled_kernels.isa)
    assert snap["counters"]["repro_kernel_sweeps_total" + key] == 20
    seconds = snap["histograms"]["repro_kernel_sweep_seconds" + key]
    wait = snap["histograms"]["repro_kernel_join_wait_seconds"]
    assert seconds["count"] == wait["count"] == 20
    assert seconds["sum"] > 0.0 and wait["sum"] >= 0.0
