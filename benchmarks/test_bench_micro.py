"""Micro-benchmarks of the substrate's hot paths (real wall time).

Unlike the figure benchmarks (whose timer measures harness wall time and
whose scientific output is the virtual-time table), these measure the Python
implementation itself: DES event throughput, channel hand-offs, plane
relaxation rate, and message framing — the quantities that bound how big
a simulated experiment this library can run.
"""

import os
import statistics
import time

import numpy as np
import pytest

from repro.cactus.events import EventBus
from repro.cactus.messages import Message
from repro.numerics import _ckernels
from repro.numerics.kernels import (
    SweepWorkspace,
    _gauss_seidel_numpy,
    block_sweep,
    gauss_seidel_sweep,
    jacobi_sweep,
)
from repro.numerics.obstacle import membrane_problem
from repro.numerics.richardson import projected_richardson, relax_plane
from repro.simnet.kernel import Simulator
from repro.solvers.halo import relax_block_plane

#: Grid size for the sweep benchmarks (paper-size 96³ under REPRO_FULL).
SWEEP_N = 96 if os.environ.get("REPRO_FULL", "0") == "1" else 64


def _reference_jacobi_sweep(problem, u, u_next, delta, new_plane, scratch):
    """The pre-kernel plane-by-plane Jacobi sweep (the seed's hot loop),
    kept as the baseline the fused kernels are measured against."""
    diff = 0.0
    for z in range(problem.grid.n):
        relax_plane(problem, u, z, delta, new_plane, scratch)
        d = float(np.max(np.abs(new_plane - u[z])))
        if d > diff:
            diff = d
        u_next[z] = new_plane
    return diff


def _reference_gs_sweep(problem, u, delta, new_plane, scratch):
    """The pre-kernel plane-by-plane Gauss–Seidel sweep (seed hot loop)."""
    diff = 0.0
    for z in range(problem.grid.n):
        relax_plane(problem, u, z, delta, new_plane, scratch)
        d = float(np.max(np.abs(new_plane - u[z])))
        if d > diff:
            diff = d
        u[z] = new_plane
    return diff


def _reference_block_sweep(problem, block, lo, hi, delta, gb, ga,
                           new_plane, scratch):
    """The pre-kernel plane-by-plane block sweep (seed sweep_block)."""
    diff = 0.0
    n_planes = hi - lo
    for zl in range(n_planes):
        below = block[zl - 1] if zl > 0 else gb
        above = block[zl + 1] if zl < n_planes - 1 else ga
        relax_block_plane(problem, block, zl, lo + zl, delta,
                          new_plane, scratch, below, above)
        d = float(np.max(np.abs(new_plane - block[zl])))
        if d > diff:
            diff = d
        block[zl] = new_plane
    return diff


def test_bench_kernel_event_throughput(benchmark):
    """Timeout-chain throughput: events scheduled + dispatched per call."""

    def run_chain():
        sim = Simulator()

        def ticker():
            for _ in range(1000):
                yield sim.timeout(1.0)

        sim.spawn(ticker())
        sim.run()
        return sim.now

    now = benchmark(run_chain)
    assert now == 1000.0


def test_bench_kernel_channel_handoff(benchmark):
    """Producer/consumer pairs through a FIFO channel."""

    def run_pairs():
        sim = Simulator()
        ch = sim.channel()
        got = []

        def producer():
            for i in range(500):
                ch.put(i)
                yield sim.timeout(0.001)

        def consumer():
            for _ in range(500):
                item = yield ch.get()
                got.append(item)

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        return len(got)

    assert benchmark(run_pairs) == 500


def test_bench_event_bus_dispatch(benchmark):
    bus = EventBus(Simulator())
    hits = []
    for i in range(8):
        bus.bind("E", lambda i=i: hits.append(i))

    def dispatch():
        hits.clear()
        for _ in range(100):
            bus.raise_event("E")
        return len(hits)

    assert benchmark(dispatch) == 800


def test_bench_plane_relaxation(benchmark):
    """One projected relaxation of a 96² plane — the solver's hot loop."""
    problem = membrane_problem(96)
    u = problem.feasible_start()
    out = np.empty((96, 96))
    scratch = np.empty((96, 96))
    delta = problem.jacobi_delta()

    def relax():
        relax_plane(problem, u, 48, delta, out, scratch)
        return out

    result = benchmark(relax)
    assert np.isfinite(result).all()


def test_bench_jacobi_sweep_reference(benchmark):
    """Seed-style plane-by-plane whole-grid Jacobi sweep (baseline)."""
    problem = membrane_problem(SWEEP_N)
    n = SWEEP_N
    u = problem.feasible_start()
    u_next = np.empty_like(u)
    new_plane = np.empty((n, n))
    scratch = np.empty((n, n))
    delta = problem.jacobi_delta()

    diff = benchmark(
        _reference_jacobi_sweep, problem, u, u_next, delta, new_plane, scratch
    )
    assert np.isfinite(diff)


def test_bench_jacobi_sweep_fused(benchmark):
    """Fused whole-grid Jacobi sweep (one relaxation of n³ points)."""
    problem = membrane_problem(SWEEP_N)
    ws = SweepWorkspace(problem, problem.jacobi_delta())
    u = problem.feasible_start()
    u_next = ws.rotation_buffer()

    diff = benchmark(jacobi_sweep, ws, u, u_next)
    assert np.isfinite(diff)


def test_bench_jacobi_sweep_fused_float32(benchmark):
    """The same fused Jacobi sweep at float32 — the sweeps are
    bandwidth-bound, so halving the element width is the dtype
    dimension's headline number (expect ~1.5–2x vs float64)."""
    problem = membrane_problem(SWEEP_N)
    ws = SweepWorkspace(problem, problem.jacobi_delta(), dtype=np.float32)
    u = problem.feasible_start().astype(np.float32)
    u_next = ws.rotation_buffer()

    diff = benchmark(jacobi_sweep, ws, u, u_next)
    assert np.isfinite(diff)


def _interleaved(benchmark, a, b):
    """Benchmark ``a()`` and ``b()`` interleaved on whatever state they
    share: a round runs a, b, b, a and the next one b, a, a, b, so
    neither drift nor position in the round favours a side.  Returns
    ``b()``'s last result and the median over rounds of a-time / b-time
    (two separately run benchmarks drift apart by more than a few
    percent on a shared 2-vCPU VM)."""
    order = [a, b, b, a]
    ratios = []

    def one_round():
        spent = {a: 0.0, b: 0.0}
        for fn in order:
            t0 = time.perf_counter()
            result = fn()
            spent[fn] += time.perf_counter() - t0
        ratios.append(spent[a] / spent[b])
        order[:] = [order[1], order[0], order[3], order[2]]
        return result

    return benchmark(one_round), statistics.median(ratios)


def test_bench_jacobi_sweep_telemetry_pair(benchmark):
    """The fused Jacobi sweep with the default-on kernel probe against
    the same sweep with telemetry fully disabled (``REPRO_TELEMETRY=off``
    at workspace bake, where the probe is resolved), interleaved on the
    same arrays.  The ratio is ``telemetry_overhead`` in
    ``BENCH_micro.json``, gated at <= 3% by ``run_bench.py --check``."""
    problem = membrane_problem(SWEEP_N)
    on = SweepWorkspace(problem, problem.jacobi_delta())
    prior = os.environ.get("REPRO_TELEMETRY")
    os.environ["REPRO_TELEMETRY"] = "off"
    try:
        off = SweepWorkspace(problem, problem.jacobi_delta())
    finally:
        if prior is None:
            os.environ.pop("REPRO_TELEMETRY", None)
        else:
            os.environ["REPRO_TELEMETRY"] = prior
    assert on._tele is not None and off._tele is None
    u = problem.feasible_start()
    u_next = on.rotation_buffer()

    diff, ratio = _interleaved(benchmark,
                               lambda: jacobi_sweep(on, u, u_next),
                               lambda: jacobi_sweep(off, u, u_next))
    assert np.isfinite(diff)
    benchmark.extra_info["telemetry_overhead"] = ratio


def test_bench_gauss_seidel_sweep_reference(benchmark):
    """Seed-style plane-by-plane Gauss–Seidel sweep (baseline)."""
    problem = membrane_problem(SWEEP_N)
    n = SWEEP_N
    u = problem.feasible_start()
    new_plane = np.empty((n, n))
    scratch = np.empty((n, n))
    delta = problem.jacobi_delta()

    diff = benchmark(_reference_gs_sweep, problem, u, delta, new_plane, scratch)
    assert np.isfinite(diff)


def test_bench_gauss_seidel_sweep_fused(benchmark):
    """Fused plane-sequential Gauss–Seidel sweep."""
    problem = membrane_problem(SWEEP_N)
    ws = SweepWorkspace(problem, problem.jacobi_delta())
    u = problem.feasible_start()
    u_next = ws.rotation_buffer()

    diff = benchmark(gauss_seidel_sweep, ws, u, u_next)
    assert np.isfinite(diff)


def test_bench_gauss_seidel_sweep_fused_float32(benchmark):
    """Fused plane-sequential sweep at float32 (dtype dimension)."""
    problem = membrane_problem(SWEEP_N)
    ws = SweepWorkspace(problem, problem.jacobi_delta(), dtype=np.float32)
    u = problem.feasible_start().astype(np.float32)
    u_next = ws.rotation_buffer()

    diff = benchmark(gauss_seidel_sweep, ws, u, u_next)
    assert np.isfinite(diff)


def _block16():
    """A 16-plane interior block of the 64³ problem (one of four peers'
    shares) with its ghosts: workspace, block, rotation buffer, ghosts."""
    problem = membrane_problem(64)
    ws = SweepWorkspace(problem, problem.jacobi_delta(), lo=24, hi=40)
    u0 = problem.feasible_start()
    return ws, u0[24:40].copy(), ws.rotation_buffer(), u0[23].copy(), \
        u0[40].copy()


def test_bench_gauss_seidel_block16_backend_pair(benchmark):
    """The Gauss–Seidel block sweep on the numpy kernel against the
    backend the workspace picked (compiled wherever it loads),
    interleaved on the same arrays: the ratio is ``compiled_vs_numpy``
    in ``BENCH_micro.json``, gated at >= 1.3x by ``run_bench.py
    --check``.  The block is two minimum bands' worth of points, so
    where a worker runs the compiled sweep is split into two bands."""
    ws, block, nxt, gb, ga = _block16()
    benchmark.extra_info["backend"] = \
        "numpy" if ws._compiled is None else "c"
    diff, ratio = _interleaved(
        benchmark,
        lambda: _gauss_seidel_numpy(ws, block, nxt, gb, ga),
        lambda: gauss_seidel_sweep(ws, block, nxt, gb, ga))
    assert np.isfinite(diff)
    benchmark.extra_info["compiled_vs_numpy"] = ratio


def test_bench_gauss_seidel_block16_isa_pair(benchmark):
    """The same sweep on the compiled library's baseline body against
    its AVX2 body, interleaved on the same arrays (both split into
    bands alike): the ratio is ``avx2_vs_baseline`` in
    ``BENCH_micro.json``, gated at >= 1.10x by ``run_bench.py
    --check``."""
    lib = _ckernels.load()
    if lib is None or "avx2" not in lib.bodies:
        pytest.skip("no AVX2 body to time: the compiled sweeps did not "
                    "load or this CPU does not run AVX2")
    avx2, block, nxt, gb, ga = _block16()
    baseline = _block16()[0]
    baseline._compiled.kernels = {
        order: lib.bodies["baseline"][order, baseline.dtype]
        for order in ("jacobi", "gauss_seidel")}

    diff, ratio = _interleaved(
        benchmark,
        lambda: gauss_seidel_sweep(baseline, block, nxt, gb, ga),
        lambda: gauss_seidel_sweep(avx2, block, nxt, gb, ga))
    assert np.isfinite(diff)
    benchmark.extra_info["avx2_vs_baseline"] = ratio


def test_bench_gauss_seidel_sweep_parallelism(benchmark):
    """The whole-block Gauss–Seidel sweep of the 64³ problem, split
    into bands that the pool's workers and the joining thread run: per
    sweep, its bands' run times summed over the wall time from start to
    join.  The median is ``sweep_parallelism`` in ``BENCH_micro.json``,
    gated at >= 1.3 by ``run_bench.py --check`` where this process may
    use two CPUs or more."""
    if _ckernels.pool_workers() == 0:
        pytest.skip("1 usable CPU: the pool has no worker to run bands "
                    "beside the joining thread")
    problem = membrane_problem(SWEEP_N)
    ws = SweepWorkspace(problem, problem.jacobi_delta())
    if ws._compiled is None:
        pytest.skip("the compiled sweeps did not load")
    u = problem.feasible_start()
    u_next = ws.rotation_buffer()
    job = ws._compiled.job
    ratios = []

    def one_sweep():
        t0 = time.perf_counter()
        diff = gauss_seidel_sweep(ws, u, u_next)
        ratios.append(job.seconds / (time.perf_counter() - t0))
        return diff

    diff = benchmark(one_sweep)
    assert np.isfinite(diff)
    benchmark.extra_info["sweep_parallelism"] = statistics.median(ratios)
    benchmark.extra_info["bands"] = job.bands


def test_bench_block_sweep_reference(benchmark):
    """Seed-style half-domain block sweep with ghost planes (baseline)."""
    problem = membrane_problem(SWEEP_N)
    n = SWEEP_N
    lo, hi = n // 4, n // 4 + n // 2
    u0 = problem.feasible_start()
    block = u0[lo:hi].copy()
    gb, ga = u0[lo - 1].copy(), u0[hi].copy()
    new_plane = np.empty((n, n))
    scratch = np.empty((n, n))
    delta = problem.jacobi_delta()

    diff = benchmark(
        _reference_block_sweep, problem, block, lo, hi, delta, gb, ga,
        new_plane, scratch,
    )
    assert np.isfinite(diff)


def test_bench_block_sweep_fused(benchmark):
    """Fused half-domain block sweep with ghost planes."""
    problem = membrane_problem(SWEEP_N)
    n = SWEEP_N
    lo, hi = n // 4, n // 4 + n // 2
    ws = SweepWorkspace(problem, problem.jacobi_delta(), lo=lo, hi=hi)
    u0 = problem.feasible_start()
    block = u0[lo:hi].copy()
    nxt = ws.rotation_buffer()
    gb, ga = u0[lo - 1].copy(), u0[hi].copy()

    diff = benchmark(block_sweep, ws, block, nxt, gb, ga)
    assert np.isfinite(diff)


def test_bench_block_sweep_fused_float32(benchmark):
    """Fused half-domain block sweep with ghosts at float32 (dtype
    dimension of the distributed solver's kernel)."""
    problem = membrane_problem(SWEEP_N)
    n = SWEEP_N
    lo, hi = n // 4, n // 4 + n // 2
    ws = SweepWorkspace(problem, problem.jacobi_delta(), lo=lo, hi=hi,
                        dtype=np.float32)
    u0 = problem.feasible_start().astype(np.float32)
    block = u0[lo:hi].copy()
    nxt = ws.rotation_buffer()
    gb, ga = u0[lo - 1].copy(), u0[hi].copy()

    diff = benchmark(block_sweep, ws, block, nxt, gb, ga)
    assert np.isfinite(diff)


def test_bench_sequential_solve_16(benchmark):
    problem = membrane_problem(16)

    def solve():
        return projected_richardson(problem, tol=1e-4)

    res = benchmark(solve)
    assert res.converged


def test_bench_message_framing(benchmark):
    payload = np.zeros((96, 96))

    def frame():
        msg = Message(payload)
        msg.push_header("transport", kind="DATA", seq=1, epoch=0,
                        msg_id=1, needs_appack=False, ts=0.0)
        size = msg.size_bytes
        msg.pop_header("transport")
        return size

    size = benchmark(frame)
    assert size > payload.nbytes
