"""The compiled relaxation sweeps against the numpy kernels, bit for bit.

``repro/numerics/_sweep.c`` replays, per element, the floating-point
operations of the numpy kernels in ``kernels.py`` in the same order, so
every iterate, diff, relaxation count and simulated time is the same on
both backends.  Here hypothesis draws blocks across sizes, domain
edges, ghosts, dtypes, step sizes, right-hand sides, constraints and
Jacobi slabs, with -0.0, ±inf, NaN and subnormals in the inputs and
±0.0 bounds (scalar and field) met by ±0.0 updates, and compares
``nxt`` byte for byte, once per instruction-set body of the library
(baseline, and AVX2 where the CPU runs it); row lengths cover the
4- and 8-lane vector bodies and their tails.  NaN payloads are the one
thing IEEE leaves to the implementation, so NaNs are canonicalised
first.

Also here: results that do not depend on the Jacobi slab, signed-zero
ties and zero diffs, where the compiled path hands arguments to the
numpy path, the NaN diff contract, the ``backend`` and ``isa``
telemetry labels, and the build contract (fallback without a compiler
or with a numpy that breaks ties the other way, the body picked per
CPU, rebuilding a broken library, two processes building at once,
nothing compiled at import).
"""

import ctypes
import math
import os
import platform
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.numerics import _ckernels, kernels
from repro.numerics.grid import Grid3D
from repro.numerics.kernels import SweepWorkspace, block_sweep
from repro.numerics.obstacle import ObstacleProblem, membrane_problem
from repro.numerics.projection import BoxConstraint
from repro.numerics.richardson import projected_richardson
from repro.resources import ResourceContext

SRC = str(Path(repro.__file__).resolve().parents[1])

NUMPY_KERNELS = {"jacobi": kernels._jacobi_numpy,
                 "gauss_seidel": kernels._gauss_seidel_numpy}

#: Values the ordinary draws never produce.
SPECIALS = (-0.0, 0.0, math.inf, -math.inf, math.nan,
            5e-324, -2.5e-310, 1.4e-45, -1e-40)


def same_bits(a, b):
    """Byte equality after mapping every NaN to one canonical NaN."""
    a, b = a.copy(), b.copy()
    a[np.isnan(a)] = np.nan
    b[np.isnan(b)] = np.nan
    return np.array_equal(a.view(np.uint8), b.view(np.uint8))


def same_diff(a, b):
    """Equal including the sign of a zero, or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def field(rng, shape, scale, specials, specials_share, zeros=False):
    """Normal noise (or, with ``zeros``, random signed zeros) with a
    share of its entries replaced by specials."""
    if zeros:
        values = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    else:
        values = scale * rng.normal(size=shape)
    if specials and specials_share:
        mask = rng.random(shape) < specials_share
        values[mask] = rng.choice(np.array(specials), size=int(mask.sum()))
    return values


#: Bound kinds: none, ±0.3, +0.0, -0.0, a ±(0.3 + |noise|) field, a
#: field of signed zeros (both with specials mixed in).
BOUNDS = ["none", "scalar", "+0.0", "-0.0", "field", "zeros"]


@st.composite
def cases(draw):
    # 4 float64 / 8 float32 lanes per AVX2 vector, 2 / 4 per SSE2 one:
    # shorter rows, whole vectors, and vectors plus tails
    n = draw(st.sampled_from([1, 2, 3, 5, 8, 9, 24, 33, 64]))
    m = draw(st.integers(1, min(n, 3 if n >= 24 else 6)))
    lo = draw(st.integers(0, n - m))
    return {
        "n": n, "lo": lo, "hi": lo + m,
        "dtype": draw(st.sampled_from([np.float64, np.float32])),
        "delta": draw(st.sampled_from(["jacobi", "scaled", "numpy"])),
        "c": draw(st.sampled_from([0.0, 0.5])),
        "b": draw(st.sampled_from(["zero", "scalar", "field"])),
        "lower": draw(st.sampled_from(BOUNDS)),
        "upper": draw(st.sampled_from(BOUNDS)),
        # "zeros": an iterate of signed zeros, whose updates meet ±0.0
        # bounds in ties at every position of the plane
        "iterate": draw(st.sampled_from(["noise", "zeros"])),
        "ghosts": (draw(st.booleans()), draw(st.booleans())),
        "slab": draw(st.sampled_from([1, 2, 3, None])),
        "specials": draw(st.sampled_from([0.0, 0.02, 0.3])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def build(case):
    """(workspace, cur, ghost_below, ghost_above) for one drawn case."""
    rng = np.random.default_rng(case["seed"])
    n, share = case["n"], case["specials"]
    grid = Grid3D(n)
    b = {"zero": grid.zeros(), "scalar": grid.full(0.75),
         "field": field(rng, grid.shape, 1.0, SPECIALS, share)}[case["b"]]
    bounds = {}
    for side, sign, infinity in (("lower", -1.0, -math.inf),
                                 ("upper", 1.0, math.inf)):
        kind = case[side]
        specials = (infinity, math.nan, -0.0, 0.0)
        if kind == "scalar":
            bounds[side] = sign * 0.3
        elif kind in ("+0.0", "-0.0"):
            bounds[side] = float(kind)
        elif kind == "field":
            bounds[side] = sign * (0.3 + np.abs(rng.normal(
                scale=0.2, size=grid.shape)))
            mask = rng.random(grid.shape) < share
            bounds[side][mask] = rng.choice(specials, size=int(mask.sum()))
        elif kind == "zeros":
            bounds[side] = field(rng, grid.shape, 0.0, specials, share,
                                 zeros=True)
    problem = ObstacleProblem(grid=grid, b=b, c=case["c"],
                              constraint=BoxConstraint(**bounds))
    delta = problem.jacobi_delta()
    if case["delta"] == "scaled":
        delta *= 0.8
    elif case["delta"] == "numpy":
        delta = np.float64(0.8) * delta
    m = case["hi"] - case["lo"]
    ws = SweepWorkspace(problem, delta, lo=case["lo"], hi=case["hi"],
                        dtype=case["dtype"], slab=case["slab"] or m)
    dtype = ws.dtype
    zeros = case["iterate"] == "zeros"
    cur = field(rng, (m, n, n), 0.5, SPECIALS, share, zeros).astype(dtype)
    below, above = (
        field(rng, (n, n), 0.5, SPECIALS, share, zeros).astype(dtype)
        if present else None for present in case["ghosts"])
    return ws, cur, below, above


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cases())
def test_compiled_sweeps_match_numpy_bitwise(compiled_kernels, isa_body,
                                             case):
    ws, cur, below, above = build(case)
    compiled = ws._compiled
    assert compiled is not None
    body = compiled_kernels.bodies[isa_body]
    assert compiled.kernels == {order: body[order, ws.dtype]
                                for order in NUMPY_KERNELS}
    with np.errstate(all="ignore"):
        for order, numpy_kernel in NUMPY_KERNELS.items():
            got, want = ws.rotation_buffer(), ws.rotation_buffer()
            got_diff = compiled.run(order, cur, got, below, above)
            want_diff = numpy_kernel(ws, cur, want, below, above)
            assert got_diff is not None, "arguments fell back to numpy"
            assert same_bits(got, want), order
            assert same_diff(got_diff, want_diff), (order, got_diff, want_diff)


def signed_zero_block(rng, shape):
    """Signed zeros with a few ±1.0 entries, so neighbour sums of
    -0.0 + -0.0 and updates of either zero sign occur throughout."""
    u = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    u[rng.random(shape) < 0.05] = 1.0
    u[rng.random(shape) < 0.05] = -1.0
    return u


@pytest.mark.parametrize("ghosts", [(False, False), (True, True)])
def test_jacobi_results_do_not_depend_on_the_slab(kernel_backend, ghosts):
    """Every plane's z-sum is below + above whatever slab it is in, so
    even the signs of zeros are the same for any slab, on either
    backend."""
    rng = np.random.default_rng(5)
    grid = Grid3D(9)
    problem = ObstacleProblem(grid=grid, b=grid.zeros(),
                              constraint=BoxConstraint())
    cur = signed_zero_block(rng, (7, 9, 9))
    below, above = (signed_zero_block(rng, (9, 9)) if present else None
                    for present in ghosts)
    results = []
    for slab in (1, 2, 3, 5, 7):
        ws = SweepWorkspace(problem, problem.jacobi_delta(), lo=1, hi=8,
                            slab=slab)
        nxt = ws.rotation_buffer()
        results.append((block_sweep(ws, cur, nxt, below, above,
                                    order="jacobi"), nxt))
    (diff, first), *rest = results
    assert np.signbit(first).any() and not np.signbit(first).all()
    for other_diff, other in rest:
        assert other_diff == diff
        assert same_bits(other, first)


@pytest.mark.parametrize("side", ["lower", "upper"])
@pytest.mark.parametrize("bound_kind", ["scalar", "field"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_signed_zero_ties_keep_the_bound(compiled_kernels, side,
                                         bound_kind, dtype):
    """An all +0.0 iterate relaxes to +0.0 updates; against a -0.0 bound
    every one of them is a tie, which both backends settle on the bound
    (n = 33: planes of 1089 elements, past any vector loop's tail)."""
    grid = Grid3D(33)
    bound = -0.0 if bound_kind == "scalar" else np.full(grid.shape, -0.0)
    problem = ObstacleProblem(grid=grid, b=grid.zeros(),
                              constraint=BoxConstraint(**{side: bound}))
    ws = SweepWorkspace(problem, problem.jacobi_delta(), lo=3, hi=11,
                        dtype=dtype)
    cur = np.zeros((8, 33, 33), dtype)
    for order, numpy_kernel in NUMPY_KERNELS.items():
        got, want = ws.rotation_buffer(), ws.rotation_buffer()
        assert ws._compiled.run(order, cur, got, None, None) is not None
        numpy_kernel(ws, cur, want, None, None)
        assert same_bits(got, want), order
        assert np.signbit(want).all(), order


@pytest.mark.parametrize("order", ["jacobi", "gauss_seidel"])
def test_a_zero_diff_is_positive_zero(kernel_backend, order):
    """All updates -0.0 - (+0.0) = -0.0: the diff is still +0.0."""
    grid = Grid3D(6)
    problem = ObstacleProblem(grid=grid, b=grid.zeros(),
                              constraint=BoxConstraint(lower=-0.0))
    ws = SweepWorkspace(problem, problem.jacobi_delta())
    nxt = ws.rotation_buffer()
    diff = block_sweep(ws, grid.zeros(), nxt, None, None, order=order)
    assert np.signbit(nxt).all()
    assert diff == 0.0 and math.copysign(1.0, diff) == 1.0


class TestArgumentsTheCompiledPathRefuses:
    """Anything but matching, aligned, C-contiguous ndarrays with a
    distinct ``nxt`` goes to the numpy kernels: their errors, or their
    result."""

    @pytest.fixture
    def setup(self, compiled_kernels):
        problem = membrane_problem(6)
        ws = SweepWorkspace(problem, problem.jacobi_delta(), lo=1, hi=4)
        rng = np.random.default_rng(7)
        u = problem.feasible_start() + 0.01 * rng.random((6, 6, 6))
        return ws, u[1:4].copy(), u[0].copy(), u[4].copy()

    def expect_numpy(self, ws, cur, nxt, below, above, order):
        """Run through the public entry point; the numpy kernel must
        have produced the result (same bits as the oracle, counted
        under backend="numpy")."""
        want = np.empty((3, 6, 6))
        want_diff = NUMPY_KERNELS[order](ws, np.array(cur), want,
                                         below, above)
        counter = ws._tele.sweeps[order, "numpy"]
        before = counter.value
        diff = block_sweep(ws, cur, nxt, below, above, order=order)
        assert counter.value == before + 1
        assert same_diff(diff, want_diff)
        assert same_bits(np.asarray(nxt), want)

    @pytest.mark.parametrize("order", ["jacobi", "gauss_seidel"])
    def test_misaligned_arrays(self, setup, order):
        ws, cur, below, above = setup
        raw = bytearray(cur.nbytes + 1)
        shifted = np.frombuffer(raw, dtype=np.float64, offset=1,
                                count=cur.size).reshape(cur.shape)
        shifted[...] = cur
        assert not shifted.flags.aligned
        self.expect_numpy(ws, shifted, ws.rotation_buffer(), below, above,
                          order)

    @pytest.mark.parametrize("order", ["jacobi", "gauss_seidel"])
    def test_broadcast_ghost_row(self, setup, order):
        ws, cur, below, _above = setup
        self.expect_numpy(ws, cur, ws.rotation_buffer(), below,
                          np.linspace(0.0, 0.1, 6), order)

    @pytest.mark.parametrize("order", ["jacobi", "gauss_seidel"])
    def test_nxt_overlapping_a_ghost(self, setup, order):
        ws, cur, below, _above = setup
        nxt = ws.rotation_buffer()
        ghost = nxt[2]  # a view into nxt: the compiled kernel refuses it
        ghost[...] = 0.05
        want_ghost = ghost.copy()
        want = np.empty_like(nxt)
        want[2] = want_ghost
        NUMPY_KERNELS[order](ws, cur, want, below, want[2])
        counter = ws._tele.sweeps[order, "numpy"]
        before = counter.value
        block_sweep(ws, cur, nxt, below, ghost, order=order)
        assert counter.value == before + 1
        assert same_bits(nxt, want)

    def test_errors_are_the_numpy_kernels(self, setup):
        ws, cur, below, above = setup
        with pytest.raises(ValueError, match="distinct"):
            block_sweep(ws, cur, cur, below, above)
        with pytest.raises(ValueError, match="C-contiguous"):
            block_sweep(ws, np.asfortranarray(cur), ws.rotation_buffer(),
                        below, above)
        frozen = ws.rotation_buffer()
        frozen.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            block_sweep(ws, cur, frozen, below, above)
        with pytest.raises(ValueError, match="dtype"):
            block_sweep(ws, cur.astype(np.float32), ws.rotation_buffer(),
                        below, above)


def test_numpy_scratch_is_not_allocated(compiled_kernels):
    problem = membrane_problem(8)
    ws = SweepWorkspace(problem, problem.jacobi_delta())
    for order in NUMPY_KERNELS:
        block_sweep(ws, problem.feasible_start(), ws.rotation_buffer(),
                    None, None, order=order)
    assert ws._stage is None and ws._nb is None


def test_backend_label_counts_each_kernel(compiled_kernels, isa_body):
    """Compiled sweeps are counted under the body the library runs
    (``isa`` = ``lib.isa``), numpy sweeps under ``isa="none"``."""
    assert compiled_kernels.isa == isa_body
    ctx = ResourceContext(name="backend-label")
    problem = membrane_problem(6)
    ws = SweepWorkspace(problem, problem.jacobi_delta(), resources=ctx)
    u = problem.feasible_start()
    block_sweep(ws, u, ws.rotation_buffer(), None, None)
    block_sweep(ws, u, ws.rotation_buffer(), None, None, order="jacobi")
    block_sweep(ws, u, ws.rotation_buffer(), np.zeros(6), None)
    counters = ctx.telemetry.snapshot()["counters"]
    key = 'repro_kernel_sweeps_total{backend="%s",isa="%s",order="%s"}'
    assert {k: v for k, v in counters.items()
            if k.startswith("repro_kernel_sweeps_total")} == {
        key % ("c", isa_body, "gauss_seidel"): 1,
        key % ("c", isa_body, "jacobi"): 1,
        key % ("numpy", "none", "gauss_seidel"): 1,
        key % ("numpy", "none", "jacobi"): 0}
    # A 6^3 block is one band; a numpy sweep counts as one band too.
    assert {k.replace("bands", "sweeps"): v for k, v in counters.items()
            if k.startswith("repro_kernel_bands_total")} == {
        k: v for k, v in counters.items()
        if k.startswith("repro_kernel_sweeps_total")}
    histograms = ctx.telemetry.snapshot()["histograms"]
    assert histograms['repro_kernel_sweep_seconds{backend="c",isa="%s",'
                      'order="jacobi"}' % isa_body]["count"] == 1


def cpuinfo_flags():
    """The CPU flags /proc/cpuinfo lists, or None where there is none."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return None


def test_the_bound_body_is_the_one_this_cpu_runs(compiled_kernels):
    lib = compiled_kernels
    if platform.machine() not in ("x86_64", "AMD64"):
        assert list(lib.bodies) == ["baseline"]  # the only body built
    else:
        flags = cpuinfo_flags()
        if flags is None:
            pytest.skip("no /proc/cpuinfo to ask about AVX2")
        # the kernel lists avx2 only when it also saves the YMM state
        assert lib.isa == ("avx2" if "avx2" in flags else "baseline")
    assert {fn.__name__ for fn in lib.bodies[lib.isa].values()} == {
        f"repro_{order}_{suffix}{'_avx2' if lib.isa == 'avx2' else ''}"
        for order in NUMPY_KERNELS for suffix in ("f64", "f32")}


def test_a_cpu_without_avx2_binds_the_baseline_body(compiled_kernels,
                                                    monkeypatch):
    class WithoutAvx2(ctypes.CDLL):
        def repro_cpu_avx2(self):
            return 0

    monkeypatch.setattr(_ckernels.ctypes, "CDLL", WithoutAvx2)
    lib = _ckernels._try_load(compiled_kernels._name)
    assert lib.isa == "baseline" and list(lib.bodies) == ["baseline"]
    assert {fn.__name__ for fn in lib.bodies["baseline"].values()} == {
        f"repro_{order}_{suffix}"
        for order in NUMPY_KERNELS for suffix in ("f64", "f32")}
    # and the workspaces built meanwhile sweep on it, same bits
    monkeypatch.setattr(_ckernels, "_lib", lib)
    ctx = ResourceContext(name="without-avx2")
    problem = membrane_problem(9)
    ws = SweepWorkspace(problem, problem.jacobi_delta(), resources=ctx)
    assert ws._compiled.kernels["jacobi"] is \
        lib.bodies["baseline"]["jacobi", ws.dtype]
    u = problem.feasible_start() + 0.01
    got, want = ws.rotation_buffer(), ws.rotation_buffer()
    assert block_sweep(ws, u, got, None, None, order="jacobi") == \
        kernels._jacobi_numpy(ws, u, want, None, None)
    assert same_bits(got, want)
    assert ctx.telemetry.snapshot()["counters"][
        'repro_kernel_sweeps_total{backend="c",isa="baseline",'
        'order="jacobi"}'] == 1


# -- a NaN update is never dropped from the diff -----------------------------


def nan_start(problem):
    u0 = problem.feasible_start()
    u0[3, 4, 5] = np.nan
    return u0


@pytest.mark.parametrize("order", ["jacobi", "gauss_seidel"])
def test_nan_update_makes_the_diff_nan(kernel_backend, order):
    problem = membrane_problem(8)
    ws = SweepWorkspace(problem, problem.jacobi_delta())
    assert (ws._compiled is not None) == (kernel_backend == "c")
    with np.errstate(invalid="ignore"):
        diff = block_sweep(ws, nan_start(problem), ws.rotation_buffer(),
                           None, None, order=order)
    assert math.isnan(diff)


@pytest.mark.parametrize("sweep", ["jacobi", "gauss_seidel"])
def test_nan_start_raises_instead_of_converging(kernel_backend, sweep):
    problem = membrane_problem(8)
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match="non-finite"):
        projected_richardson(problem, u0=nan_start(problem), sweep=sweep)


# -- build contract -----------------------------------------------------------


@pytest.fixture(scope="session")
def compiler_output(tmp_path_factory):
    """What the compiler makes of ``_sweep.c``, built once per session
    into a shared temporary directory: the tests below that rebuild
    copy it instead of compiling again (each compile takes seconds)."""
    cc = _ckernels.compiler()
    if cc is None or _ckernels.load() is None:
        pytest.skip("the compiled sweeps are unavailable on this machine")
    path = tmp_path_factory.mktemp("sweep-build") / "sweep.so"
    _ckernels._build(cc, str(path))
    assert _ckernels._intact(str(path))
    data = path.read_bytes()
    raw = path.with_suffix(".raw")
    raw.write_bytes(data[:len(data) - len(_ckernels.TRAILER) - 32])
    return raw


#: A stand-in for the compiler: copies the session's compiler output to
#: the path after ``-o`` (its last argument), after a pause that keeps
#: two of them building at once.
COPYING_COMPILER = textwrap.dedent("""
    import shutil, sys, time
    time.sleep(0.2)
    shutil.copyfile({raw!r}, sys.argv[-1])
""")


@pytest.fixture
def copying_compiler(monkeypatch, compiler_output):
    """Rebuilds in this test copy the session's compiler output; the
    rest of ``_build`` (temporary name, digest, ``os.replace``) runs as
    is."""
    script = COPYING_COMPILER.format(raw=str(compiler_output))
    monkeypatch.setattr(_ckernels, "_command",
                        lambda cc: [sys.executable, "-c", script])


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """An unresolved loader whose cache lives in ``tmp_path``."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_ckernels, "_lib", _ckernels._UNRESOLVED)
    return Path(_ckernels.cache_dir())


def sweep_pair(problem):
    """GS + Jacobi iterates and diffs from a fresh workspace."""
    ws = SweepWorkspace(problem, problem.optimal_delta())
    u = problem.feasible_start() + 0.01
    out = []
    for order in NUMPY_KERNELS:
        nxt = ws.rotation_buffer()
        out.append((block_sweep(ws, u, nxt, None, None, order=order), nxt))
    return ws, out


def test_no_compiler_means_numpy_and_one_warning(monkeypatch, tmp_path):
    problem = membrane_problem(9)
    _ws, reference = sweep_pair(problem)  # whatever backend loaded
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_ckernels, "_lib", _ckernels._UNRESOLVED)
    missing = str(tmp_path / "no-such-cc")
    monkeypatch.setattr(_ckernels, "compiler", lambda: missing)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ws, first = sweep_pair(problem)
        _ws, second = sweep_pair(problem)
    assert ws._compiled is None
    messages = [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)]
    assert len(messages) == 1 and missing in messages[0], messages
    for (want_diff, want), (d1, u1), (d2, u2) in zip(reference, first,
                                                     second):
        assert want_diff == d1 == d2
        assert same_bits(u1, want) and same_bits(u2, want)


def test_numpy_breaking_ties_the_other_way_means_numpy(monkeypatch,
                                                      tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_ckernels, "_lib", _ckernels._UNRESOLVED)
    monkeypatch.setattr(_ckernels, "ties_keep_the_bound", lambda: False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _ckernels.load() is None
    messages = [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)]
    assert len(messages) == 1 and "tie" in messages[0], messages
    assert not (tmp_path / "repro").exists()  # nothing was built


@pytest.mark.parametrize("garbage", ["empty", "random", "truncated", "flipped"])
def test_broken_library_is_rebuilt(compiled_kernels, fresh_loader,
                                   copying_compiler, garbage):
    """A damaged file at the cache path is rebuilt without being opened
    (the dynamic loader dies of SIGBUS on a truncated library)."""
    rng = np.random.default_rng(11)
    good = Path(compiled_kernels._name).read_bytes()
    flipped = bytearray(good)
    flipped[len(good) // 2] ^= 0x01
    content = {"empty": b"",
               "random": b"\x7fELF" + rng.bytes(4096),
               "truncated": good[:len(good) // 2],
               "flipped": bytes(flipped)}[garbage]
    path = Path(_ckernels.library_path(_ckernels.compiler(),
                                       str(fresh_loader)))
    fresh_loader.mkdir(parents=True)
    path.write_bytes(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lib = _ckernels.load()
    assert lib is not None and Path(lib._name) == path
    assert path.read_bytes() != content
    problem = membrane_problem(7)
    ws, results = sweep_pair(problem)
    assert ws._compiled is not None
    u = problem.feasible_start() + 0.01
    for (diff, got), (order, numpy_kernel) in zip(results,
                                                  NUMPY_KERNELS.items()):
        want = ws.rotation_buffer()
        assert diff == numpy_kernel(ws, u, want, None, None)
        assert same_bits(got, want)


BUILD_AND_SWEEP = textwrap.dedent("""
    import warnings
    warnings.simplefilter("error")
    import numpy as np
    from repro.numerics import _ckernels, kernels
    from repro.numerics.obstacle import torsion_problem
    assert _ckernels.load() is not None
    problem = torsion_problem(10)
    ws = kernels.SweepWorkspace(problem, problem.jacobi_delta())
    u = problem.feasible_start() + np.random.default_rng(3).random((10,) * 3)
    got, want = ws.rotation_buffer(), ws.rotation_buffer()
    assert kernels.gauss_seidel_sweep(ws, u, got) == \\
        kernels._gauss_seidel_numpy(ws, u, want, None, None)
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
    print(ws._compiled is not None)
""")


def run_python(script, cache, **env):
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PYTHONPATH=SRC,
               **env)
    return subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def test_two_processes_build_one_cache_at_once(compiled_kernels,
                                              compiler_output, tmp_path):
    """Both build into one empty cache at once (their compiler, first
    on PATH, copies the session's build after a pause): each loads a
    whole library and sweeps the numpy kernels' bits, and one file is
    left."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    cc.write_text(f"#!{sys.executable}\n"
                  + COPYING_COMPILER.format(raw=str(compiler_output)))
    cc.chmod(0o755)
    cache = tmp_path / "cache"
    path = f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}"
    procs = [run_python(BUILD_AND_SWEEP, cache, PATH=path)
             for _ in range(2)]
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        assert out.strip() == "True"
    built = sorted(os.listdir(cache / "repro"))
    assert len(built) == 1 and built[0].endswith(".so"), built


def test_import_starts_no_compiler(tmp_path):
    script = textwrap.dedent("""
        import os, subprocess
        started = []
        real = subprocess.Popen.__init__
        def spy(self, *args, **kwargs):
            started.append(args[0] if args else kwargs.get("args"))
            real(self, *args, **kwargs)
        subprocess.Popen.__init__ = spy
        import repro, repro.numerics, repro.campaign, repro.experiments
        import repro.service
        assert started == [], started
        assert not os.path.exists(os.path.join(
            os.environ["XDG_CACHE_HOME"], "repro"))
    """)
    proc = run_python(script, tmp_path)
    _out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
