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

A sweep of at least two minimum bands' worth of points is split into
row bands that any pool thread (the joining one too) may run.  The
band tests check the derived band count (one, two, three or more, rows
split unevenly), the first and last rows, a NaN in one band, a zero
diff from -0.0 and +0.0 changes in different bands, and a fork that
lands between two bands of one sweep, all against the oracle.
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
from repro.numerics.grid import Grid3D
from repro.numerics.obstacle import (ObstacleProblem, membrane_problem,
                                     torsion_problem)
from repro.numerics.projection import BoxConstraint
from repro.resources import ResourceContext
from repro.solvers.halo import BlockState

from test_kernel_backends import (  # same-directory module (pytest prepend mode)
    SRC, same_bits, same_diff)

NUMPY_KERNELS = {"jacobi": kernels._jacobi_numpy,
                 "gauss_seidel": kernels._gauss_seidel_numpy}

#: Grid side of the bit tests.
N = 48
#: Grid side of the band tests: blocks of it are split into bands.
BANDED = 80
#: _sweep.c's fewest points per band.
BAND_POINTS = 32768
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


def derived_bands(planes, n):
    """The band count _sweep.c derives for a block of ``planes`` planes
    of side ``n``: two per pool thread, at most one per row, none under
    BAND_POINTS points, and one without a worker."""
    workers = _ckernels.pool_workers()
    if workers == 0:
        return 1
    return max(1, min(2 * (workers + 1), n, planes * n * n // BAND_POINTS))


@pytest.mark.parametrize("side", [N, BANDED])
@pytest.mark.parametrize("k", [2, 4, 8])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("local_sweep", ["gauss_seidel", "jacobi"])
def test_sweeps_in_flight_together_match_numpy(isa_body, side, k, dtype,
                                               local_sweep):
    """k blocks all begun before any is finished, finished in shuffled
    order, three rounds: every diff and iterate is the oracle's (on the
    larger side, most blocks are split into bands)."""
    problem = torsion_problem(side)
    states = [seeded_state(problem, lo, hi, dtype, local_sweep, seed=lo)
              for lo, hi in blocks(side, k)]
    assert all(s._workspace._compiled.kernels["jacobi"].__name__.endswith(
        "_avx2") == (isa_body == "avx2") for s in states)
    order = random.Random(k).sample(range(k), k)
    for _ in range(3):
        wanted = [oracle(s) for s in states]
        for s in states:
            s.begin_sweep()
        assert all(s.sweep_in_flight for s in states)
        assert [s._workspace._compiled.job.bands for s in states] == [
            derived_bands(s.block.shape[0], side) for s in states]
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


# -- bands --------------------------------------------------------------------


needs_a_worker = pytest.mark.skipif(
    _ckernels.pool_workers() == 0,
    reason="one usable CPU: no worker, so every sweep is one band")

#: {bands: (side, planes)}: blocks whose derived band count is 1, 2
#: and 3 whenever the pool has a worker, rows split unevenly.
BAND_BLOCKS = {1: (67, 7), 2: (67, 15), 3: (BANDED, 16)}

#: (dtype, type of δ): a Python float coefficient is weak for a float32
#: block, a numpy float64 one strong under NumPy 2 (_ckernels asks).
DTYPES = [("float64", float), ("float32", float), ("float32", np.float64)]
dtypes = pytest.mark.parametrize("dtype,delta_type", DTYPES,
                                 ids=["float64", "float32", "float32-strong"])
orders = pytest.mark.parametrize("order", ["gauss_seidel", "jacobi"])


def block_of(problem, planes, dtype, delta_type, lo=5):
    """A workspace of ``planes`` planes from ``lo``, a noisy block and
    noisy ghosts."""
    n = problem.grid.n
    ws = kernels.SweepWorkspace(problem, delta_type(problem.jacobi_delta()),
                                lo=lo, hi=lo + planes, dtype=dtype)
    rng = np.random.default_rng(planes)
    cur = (problem.feasible_start()[lo:lo + planes]
           + rng.random((planes, n, n))).astype(ws.dtype)
    ghosts = [rng.random((n, n)).astype(ws.dtype) for _ in range(2)]
    return ws, cur, ghosts


def banded_and_oracle(ws, order, cur, ghosts):
    """(diff, nxt) of the compiled sweep, begun and finished, and of
    the numpy oracle; checks that the sweep took the derived bands."""
    got, want = ws.rotation_buffer(), ws.rotation_buffer()
    kernels.begin_block_sweep(ws, cur, got, *ghosts, order=order)
    job = ws._compiled.job
    bands = job.bands
    got_diff = kernels.finish_block_sweep(ws)
    assert bands == derived_bands(*cur.shape[:2])
    with np.errstate(all="ignore"):
        want_diff = NUMPY_KERNELS[order](ws, cur, want, *ghosts)
    return (got_diff, got), (want_diff, want), bands


@needs_a_worker
@pytest.mark.parametrize("bands", sorted(BAND_BLOCKS))
@pytest.mark.parametrize("problem", ["membrane", "torsion"])
@orders
@dtypes
def test_band_splits_match_numpy(isa_body, bands, problem, order, dtype,
                                 delta_type):
    """Blocks split into one, two and three bands (67 and 80 rows:
    uneven splits) give the oracle's iterate and diff, on the
    membrane's lower field alone and on torsion's δb and two fields."""
    side, planes = BAND_BLOCKS[bands]
    make = membrane_problem if problem == "membrane" else torsion_problem
    ws, cur, ghosts = block_of(make(side), planes, dtype, delta_type)
    (got_diff, got), (want_diff, want), split = banded_and_oracle(
        ws, order, cur, ghosts)
    assert split == bands and (bands == 1 or side % bands)
    assert same_diff(got_diff, want_diff)
    assert same_bits(got, want)


@needs_a_worker
@orders
@dtypes
def test_the_first_and_last_rows_are_relaxed_in_their_bands(
        isa_body, order, dtype, delta_type):
    """Spikes in row 0 of the first plane and row n-1 of the last make
    the largest changes; the first and last bands relax those edge rows
    as the oracle does."""
    side, planes = BAND_BLOCKS[3]
    ws, cur, ghosts = block_of(torsion_problem(side), planes, dtype,
                               delta_type)
    cur[0, 0, 7] += 40.0
    cur[-1, side - 1, 11] -= 50.0
    (got_diff, got), (want_diff, want), _ = banded_and_oracle(
        ws, order, cur, ghosts)
    assert same_diff(got_diff, want_diff)
    assert same_bits(got, want)
    rows = np.unravel_index(np.argmax(np.abs(want - cur)), cur.shape)[1]
    assert rows in (0, side - 1)


@needs_a_worker
@orders
@dtypes
def test_a_nan_in_one_band_makes_the_diff_nan(isa_body, order, dtype,
                                              delta_type):
    side, planes = BAND_BLOCKS[3]
    ws, cur, ghosts = block_of(membrane_problem(side), planes, dtype,
                               delta_type)
    cur[planes // 2, side // 2, 9] = np.nan  # the middle band's rows only
    (got_diff, got), (want_diff, want), _ = banded_and_oracle(
        ws, order, cur, ghosts)
    assert np.isnan(want_diff) and np.isnan(got_diff)
    assert same_bits(got, want)


@needs_a_worker
@orders
@dtypes
def test_zero_changes_of_either_sign_across_bands_give_a_positive_zero(
        isa_body, order, dtype, delta_type):
    """Every update ties a signed-zero lower bound and takes it: the
    first band's changes are -0.0 - (+0.0) = -0.0, the others' +0.0 -
    (-0.0) = +0.0.  Merged, the diff is +0.0."""
    side, planes = BAND_BLOCKS[3]
    grid = Grid3D(side)
    first_band = np.arange(side) < side // 3
    lower = np.where(first_band[None, :, None], -0.0, 0.0) * np.ones(
        grid.shape)
    problem = ObstacleProblem(grid=grid, b=grid.zeros(),
                              constraint=BoxConstraint(lower=lower))
    ws = kernels.SweepWorkspace(problem, delta_type(problem.jacobi_delta()),
                                lo=5, hi=5 + planes, dtype=dtype)
    cur = np.empty((planes, side, side), ws.dtype)
    cur[...] = np.where(first_band[:, None], 0.0, -0.0)
    ghosts = [np.zeros((side, side), ws.dtype)] * 2
    (got_diff, got), (want_diff, want), _ = banded_and_oracle(
        ws, order, cur, ghosts)
    changes = np.signbit(want - cur)
    assert changes.any() and not changes.all()
    assert same_bits(got, want)
    assert same_diff(got_diff, 0.0) and same_diff(want_diff, 0.0)


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
    with pytest.raises(RuntimeError, match="already in flight"):
        ws._compiled.start_rotating("jacobi", u, ws.rotation_buffer(), None,
                                    None)
    assert kernels.finish_block_sweep(ws) > 0.0


def test_a_rotating_state_checks_its_arrays_once_per_rotation(
        compiled_kernels, monkeypatch):
    """A BlockState's two rotations are checked on its first two
    sweeps, then never again; a ghost rebound to another array is
    checked afresh.  Every sweep gives the oracle's bits."""
    checks = []
    fits = _ckernels._fits
    monkeypatch.setattr(_ckernels, "_fits",
                        lambda *args: checks.append(args) or fits(*args))
    state = seeded_state(membrane_problem(N), 8, 24)

    def sweeps(count):
        del checks[:]
        for _ in range(count):
            want_diff, want = oracle(state)
            assert same_diff(state.sweep(), want_diff)
            assert same_bits(state.block, want)
        return len(checks)

    assert sweeps(2) == 2 * 4  # block, rotation buffer, two ghosts
    assert sweeps(6) == 0
    state.ghost_below = state.ghost_below.copy()
    assert sweeps(2) == 2 * 4
    assert sweeps(6) == 0


def rebound_block(state, layout):
    """A copy of the state's block, strided or misaligned."""
    shape, dtype = state.block.shape, state.dtype
    if layout == "strided":
        copy = np.empty(shape[:2] + (2 * shape[2],), dtype)[:, :, ::2]
    else:
        copy = np.empty(state.block.nbytes + 1,
                        np.uint8)[1:].view(dtype).reshape(shape)
    copy[...] = state.block
    return copy


@pytest.mark.parametrize("local_sweep", ["gauss_seidel", "jacobi"])
def test_a_block_rebound_to_a_misaligned_array_takes_the_numpy_path(
        compiled_kernels, local_sweep):
    """After its rotations were checked, a state whose block is rebound
    to a misaligned copy sweeps it by the numpy kernel at begin, with
    the oracle's bits, and so for the next sweep, whose rotation buffer
    is that array."""
    state = seeded_state(membrane_problem(N), 8, 24,
                         local_sweep=local_sweep)
    state.sweep()
    state.sweep()
    state.block = rebound_block(state, "misaligned")
    assert not state.block.flags.aligned
    for _ in range(2):
        want_diff, want = oracle(state)
        state.begin_sweep()
        _order, diff, arrays = state._workspace._inflight
        assert arrays is None and diff is not None  # numpy, already run
        assert same_diff(state.finish_sweep(), want_diff)
        assert same_bits(state.block, want)


def test_a_block_rebound_to_a_non_contiguous_array_takes_the_numpy_path(
        compiled_kernels):
    """A strided block, after the rotations were checked, is not swept
    by the compiled path: the numpy kernel takes it and refuses it, as
    it always has, and nothing is left in flight."""
    state = seeded_state(membrane_problem(N), 8, 24)
    state.sweep()
    state.sweep()
    before = state.block.copy()
    state.block = rebound_block(state, "strided")
    with pytest.raises(ValueError, match="C-contiguous"):
        state.begin_sweep()
    assert not state.sweep_in_flight
    assert state._workspace._inflight is None
    assert same_bits(state.block, before)


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


@needs_a_worker
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_a_child_forked_between_two_bands_of_a_sweep_finishes_it(
        compiled_kernels):
    """Fork once a worker has taken the first band of a sweep: the
    prepare handler lets a running band finish and no other start, so
    the child inherits the sweep half done (bands run, bands queued) and
    its join runs the rest.  Child and parent get the oracle's bits.
    Sweeps queued ahead keep the worker busy meanwhile, so this thread
    runs beside it when the sweep starts; a fork that lands after its
    last band is tried again."""
    problem = membrane_problem(BIG)
    ahead = [seeded_state(problem, 0, BIG, seed=seed) for seed in (1, 2, 3)]
    for attempt in range(30):
        state = seeded_state(problem, 0, BIG, seed=10 + attempt)
        want = oracle(state)
        for other in ahead:
            other.begin_sweep()
        state.begin_sweep()
        job = state._workspace._compiled.job
        assert job.bands > 1
        deadline = time.monotonic() + 10.0
        while job.claimed == 0 and time.monotonic() < deadline:
            pass
        pid = os.fork()
        if pid == 0:  # the child: leave through os._exit only
            code = 1
            try:
                half_done = 0 < job.finished == job.claimed < job.bands
                if (state.finish_sweep() == want[0]
                        and same_bits(state.block, want[1])):
                    code = 0 if half_done else 3
            finally:
                os._exit(code)
        status = wait_for(pid)
        for other in ahead:
            other.finish_sweep()
        assert state.finish_sweep() == want[0]
        assert same_bits(state.block, want[1])
        assert status in (0, 3), "the child got other bits"
        if status == 0:
            return
    pytest.fail("no fork landed between two bands of a sweep")


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


@needs_a_worker
def test_the_bands_counter_shows_how_sweeps_were_split(compiled_kernels):
    """repro_kernel_bands_total adds each sweep's band count; the
    sweep's seconds stay one observation, its bands' run times summed."""
    ctx = ResourceContext(name="band-telemetry")
    side, planes = BAND_BLOCKS[3]
    problem = membrane_problem(side)
    states = [seeded_state(problem, lo, hi, resources=ctx)
              for lo, hi in ((0, planes), (planes, planes + 7))]
    for _ in range(3):
        for s in states:
            s.begin_sweep()
        for s in states:
            s.finish_sweep()
    snap = ctx.telemetry.snapshot()
    key = ('{backend="c",isa="%s",order="gauss_seidel"}'
           % compiled_kernels.isa)
    assert snap["counters"]["repro_kernel_sweeps_total" + key] == 6
    assert snap["counters"]["repro_kernel_bands_total" + key] == 3 * (3 + 1)
    seconds = snap["histograms"]["repro_kernel_sweep_seconds" + key]
    assert seconds["count"] == 6 and seconds["sum"] > 0.0
