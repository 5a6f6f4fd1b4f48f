"""Build, cache and load the compiled relaxation sweeps (``_sweep.c``).

:func:`load` compiles the C source with the system compiler the first
time it is called, keeps the shared library in ``$XDG_CACHE_HOME/repro``
(default ``~/.cache/repro``) under a name that hashes the source, the
compile command and the platform, and loads it through :mod:`ctypes`.
When that is impossible (no compiler, a failed build, an unfamiliar
ndarray layout, a numpy whose ``maximum``/``minimum`` break a
signed-zero tie the other way) it warns once and returns None, and
:mod:`repro.numerics.kernels` runs its numpy kernels instead.

A build writes to a temporary name, appends the sha256 of what the
compiler wrote, and moves the result in with ``os.replace``, so
processes building at once never load a torn file.  A file at the cache
path whose digest does not match is rebuilt without being opened: the
dynamic loader can crash on a truncated library.  An unwritable cache
directory falls back to a private temporary one, removed again once
the library is loaded.

The library holds the sweeps twice, built for two instruction sets: the
baseline of the compile flags and, on x86-64, AVX2 (see ``_sweep.c``).
:func:`_try_load` binds the AVX2 body when ``repro_cpu_avx2()`` says
this CPU runs it and the baseline body otherwise, and records the
choice as ``lib.isa``.  Both produce the same bits, so the pick needs
no option, and one library (one cache key) serves every CPU.

A sweep is a job of the library's worker pool: :meth:`CompiledSweep.
start` queues it and returns, and meanwhile it runs on worker threads
without the interpreter lock.  A sweep of a large enough block is split
into row bands that the workers and the joining thread run side by
side: :meth:`CompiledSweep.join` runs whatever bands of its sweep are
still queued, then waits for the rest.  The pool has one worker fewer
than the CPUs this process may use (the joining thread is the last
one), so on one CPU there is none and a sweep runs at join, as one
band.  Nothing sets the worker or band count; both are derived (the
bands in ``_sweep.c``: two per thread, at most one per row, none
smaller than a floor of points).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings

import numpy as np

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_sweep.c")

#: -ffp-contract=off: a fused multiply-add rounds once where numpy rounds
#: twice.  No -ffast-math and no -march=native, for the same reason.
FLAGS = ("-O3", "-ffp-contract=off", "-std=c99", "-shared", "-fPIC",
         "-pthread")

#: Ends every built library, after the sha256 of the bytes before it.
TRAILER = b"repro-sweep-sha256"


class Params(ctypes.Structure):
    """The argument block of one workspace (``repro_sweep_params``)."""

    _fields_ = [(name, ctypes.c_int64) for name in (
        "n", "m", "has_a", "strong", "db_kind", "lower_kind",
        "upper_kind", "data_off")] + [(name, ctypes.c_double) for name in (
            "d", "a", "db", "diff")] + [(name, ctypes.c_void_p) for name in (
                "db_field", "lower", "upper")]


#: Most histogram bucket bounds a :class:`Stats` holds.
STATS_BOUNDS = 16


class Stats(ctypes.Structure):
    """What the joins of compiled sweeps counted since it was last
    drained (``repro_stats``): sweeps, bands, joins, the sums and
    histogram cells of sweep and join times over ``bounds``."""

    _fields_ = [("bounds", ctypes.c_double * STATS_BOUNDS),
                ("nbounds", ctypes.c_int64)] + [
        (name, ctypes.c_int64) for name in ("sweeps", "bands", "joins")] + [
        (name, ctypes.c_double) for name in ("seconds", "wait")] + [
        (name, ctypes.c_int64 * (STATS_BOUNDS + 1))
        for name in ("seconds_counts", "wait_counts")]


class Job(ctypes.Structure):
    """One sweep of the worker pool (``repro_job``)."""

    _fields_ = [(name, ctypes.c_void_p) for name in (
        "kernel", "params", "cur", "nxt", "below", "above", "stats")] + [
            ("seconds", ctypes.c_double)] + [(name, ctypes.c_int64) for name in (
                "status", "bands", "state", "claimed", "finished")] + [
            ("hi", ctypes.c_double), ("lo", ctypes.c_double),
            ("nan", ctypes.c_int64), ("next", ctypes.c_void_p)]


def pool_workers() -> int:
    """Workers for the sweep pool: one fewer than the CPUs this process
    may run on, the joining thread being the last."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return cpus - 1


class Unavailable(Exception):
    """Why the compiled backend cannot be used in this process."""


_UNRESOLVED = object()
_lib = _UNRESOLVED
_lock = threading.Lock()


def compiler():
    """The system C compiler: the first of cc, gcc, clang on PATH."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


def load():
    """The loaded library, or None (after one RuntimeWarning) when the
    compiled backend is unavailable.  Builds on the first call only."""
    global _lib
    if _lib is _UNRESOLVED:
        with _lock:
            if _lib is _UNRESOLVED:
                try:
                    _lib = _open()
                except Unavailable as err:
                    warnings.warn(
                        f"compiled relaxation sweeps unavailable ({err}); "
                        "running the numpy kernels", RuntimeWarning,
                        stacklevel=2)
                    _lib = None
    return _lib


def _command(cc: str) -> list:
    return [cc, *FLAGS, SOURCE, "-o"]


def library_path(cc: str, directory: str) -> str:
    """Where the library for this source, command and platform lives.
    The key hashes the source's bytes, not its path, so checkouts of
    one version share a build."""
    with open(SOURCE, "rb") as f:
        source = f.read()
    key = hashlib.sha256(b"\0".join([
        source, " ".join([cc, *FLAGS]).encode(),
        f"{sys.platform} {platform.machine()}".encode(),
    ])).hexdigest()
    return os.path.join(directory, f"sweep-{key[:32]}.so")


#: Longest array :func:`ties_keep_the_bound` checks: past every vector
#: body, unrolled remainder and scalar tail of a 64-byte-wide loop.
_TIE_PROBE_LENGTH = 72


def ties_keep_the_bound() -> bool:
    """Whether numpy's ``maximum(v, bound)`` and ``minimum(v, bound)``
    return ``bound`` when ``v`` and ``bound`` are zeros of opposite
    sign, as the compiled kernels do.  Checked in place, at every length
    up to :data:`_TIE_PROBE_LENGTH`, aligned and one element off,
    against a field bound and a scalar one: numpy's scalar and SIMD
    loops need not agree on ties."""
    size = _TIE_PROBE_LENGTH + 1
    for dtype in (np.float64, np.float32):
        for v_zero, b_zero in ((0.0, -0.0), (-0.0, 0.0)):
            values = np.empty(size, dtype)
            fields = np.full(size, b_zero, dtype)
            scalar = np.array(b_zero, dtype)
            want_sign = bool(np.signbit(b_zero))
            for ufunc in (np.maximum, np.minimum):
                for start in (0, 1):
                    for stop in range(start + 1, size):
                        v = values[start:stop]
                        for bound in (fields[start:stop], scalar):
                            v.fill(v_zero)
                            ufunc(v, bound, out=v)
                            if not (np.signbit(v) == want_sign).all():
                                return False
    return True


def _open():
    if sys.implementation.name != "cpython":
        raise Unavailable("arrays are passed by CPython object address")
    if not ties_keep_the_bound():
        raise Unavailable("numpy's maximum/minimum keep the value on a "
                          "+0.0/-0.0 tie; the compiled sweeps keep the bound")
    cc = compiler()
    if cc is None:
        raise Unavailable("no C compiler (cc, gcc or clang) on PATH")
    path = library_path(cc, cache_dir())
    lib = _try_load(path)
    if lib is not None:
        return lib
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        _build(cc, path)
    except OSError:  # an unwritable cache directory
        private = tempfile.mkdtemp(prefix="repro-sweep-")
        try:
            path = library_path(cc, private)
            _build(cc, path)
            lib = _try_load(path)
        finally:
            shutil.rmtree(private, ignore_errors=True)
    else:
        lib = _try_load(path)
    if lib is None:
        raise Unavailable(f"{path} does not load after a fresh build")
    return lib


def _build(cc: str, path: str) -> None:
    fd, tmp = tempfile.mkstemp(prefix=".sweep-", suffix=".tmp",
                               dir=os.path.dirname(path))
    os.close(fd)
    try:
        try:
            done = subprocess.run([*_command(cc), tmp], capture_output=True,
                                  text=True, timeout=300)
        except OSError as err:
            raise Unavailable(f"cannot run {cc}: {err}") from None
        if done.returncode != 0:
            lines = done.stderr.strip().splitlines() or ["no output"]
            raise Unavailable(f"{cc} failed: {lines[-1]}")
        with open(tmp, "rb+") as f:
            f.write(hashlib.sha256(f.read()).digest() + TRAILER)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _intact(path: str) -> bool:
    """Whether ``path`` is a whole library as :func:`_build` wrote it."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError:
        return False
    end = len(data) - len(TRAILER)
    return (data[end:] == TRAILER
            and hashlib.sha256(data[:end - 32]).digest() == data[end - 32:end])


def _entry_points(lib, tail: str) -> dict:
    """``{(order, dtype): function}`` of the body whose symbols end in
    ``tail``, signatures set and ``address`` (what a job calls) noted."""
    points = {}
    for order in ("gauss_seidel", "jacobi"):
        for dtype, suffix in ((np.float64, "f64"), (np.float32, "f32")):
            fn = getattr(lib, f"repro_{order}_{suffix}{tail}")
            fn.restype = ctypes.c_int
            fn.argtypes = [ctypes.c_void_p] * 5 + [ctypes.c_int64] * 2 + [
                ctypes.c_void_p]
            fn.address = ctypes.cast(fn, ctypes.c_void_p).value
            points[order, np.dtype(dtype)] = fn
    return points


def _try_load(path: str):
    """The library at ``path`` with its signatures set and the body
    this CPU runs bound, or None when the file is missing, damaged or
    does not load.

    ``lib.bodies`` maps each body this CPU can run (``"baseline"``, and
    ``"avx2"`` where ``repro_cpu_avx2()`` is 1) to its entry points;
    ``lib.isa`` names the one workspaces bind."""
    if not _intact(path):
        return None
    try:
        lib = ctypes.CDLL(path)
        lib.repro_array_data.restype = ctypes.c_void_p
        lib.repro_array_data.argtypes = [ctypes.c_void_p, ctypes.c_int64]
        # start only queues, so it keeps the interpreter lock; join
        # releases it while it waits or runs sweeps itself.
        lib.start = ctypes.PyDLL(path, handle=lib._handle).repro_sweep_start
        lib.start.restype = None
        lib.start.argtypes = [ctypes.c_void_p]
        lib.join = lib.repro_sweep_join
        lib.join.restype = ctypes.c_int
        lib.join.argtypes = [ctypes.c_void_p]
        # A non-zero result (no fork handlers) leaves the pool without
        # workers: every sweep then runs at join, same bits.
        lib.repro_pool_size.restype = ctypes.c_int
        lib.repro_pool_size.argtypes = [ctypes.c_int64]
        lib.repro_stats_drain.restype = None
        lib.repro_stats_drain.argtypes = [ctypes.c_void_p] * 2
        lib.bodies = {"baseline": _entry_points(lib, "")}
        if lib.repro_cpu_avx2() == 1:
            lib.bodies["avx2"] = _entry_points(lib, "_avx2")
    except (OSError, AttributeError):
        return None
    lib.isa = "avx2" if "avx2" in lib.bodies else "baseline"
    # The data pointer sits right after the object header in numpy's
    # ABI-frozen PyArrayObject; check that on real arrays before any
    # sweep relies on it.
    lib.data_off = object.__basicsize__
    probes = (np.empty(3), np.zeros((4, 5), np.float32)[1:])
    if any(lib.repro_array_data(id(a), lib.data_off) != a.ctypes.data
           for a in probes):
        raise Unavailable("unrecognised ndarray object layout")
    lib.repro_pool_size(pool_workers())
    return lib


#: ``ndarray.flags.num`` bits: C-contiguous and aligned (inputs), plus
#: writeable (the output).
_READABLE = 0x0001 | 0x0100
_WRITABLE = _READABLE | 0x0400


def _fits(a, shape, dtype, flags=_READABLE) -> bool:
    return (isinstance(a, np.ndarray) and a.shape == shape
            and a.dtype == dtype and a.flags.num & flags == flags)


def _strength(coefficient, dtype):
    """Whether numpy multiplies a ``dtype`` array by ``coefficient`` in
    float64 (True) or in ``dtype`` itself (False), asked of numpy rather
    than assumed: NumPy 2 runs a float32 array times a numpy float64 in
    float64, NumPy 1 in float32.  None when it picks anything else."""
    if not isinstance(coefficient, (float, np.floating)):
        return None
    result = np.multiply(np.ones(1, dtype), coefficient).dtype
    if result == dtype:
        return False
    return True if result == np.float64 else None


def _term(value, shape, dtype):
    """(kind, data address) of a δ·b or constraint term — absent,
    scalar or ``(hi−lo, n, n)`` field — or None when it has no compiled
    form."""
    if value is None:
        return 0, None
    if isinstance(value, float):  # a constant δ·b, added in ``dtype``
        return (1, None) if _strength(value, dtype) is False else None
    for kind, want in ((1, ()), (2, shape)):
        if _fits(value, want, dtype):
            return kind, value.ctypes.data
    return None


class CompiledSweep:
    """A workspace's baked argument block, compiled entry points and
    pool job: at most one sweep of it is in flight at a time.

    The block holds raw addresses of the workspace's ``db``/``lower``/
    ``upper`` arrays (``fields``), so this object keeps them alive: a
    worker may still read them after the workspace is gone.  Likewise
    the :class:`Stats` each order's joins count in (``stats``, by
    order; none for an order means it is not counted).
    """

    __slots__ = ("params", "shape", "plane", "dtype", "kernels", "job",
                 "_fields", "_lib", "_job", "_arrays", "_stats",
                 "_stats_at")

    def __init__(self, lib, params, fields, shape, dtype, stats):
        self.params = params
        self._fields = fields
        self.shape = shape
        self.plane = shape[1:]
        self.dtype = dtype
        self.kernels = {order: lib.bodies[lib.isa][order, dtype]
                        for order in ("jacobi", "gauss_seidel")}
        self.job = Job(params=ctypes.addressof(params))
        self._lib = lib
        self._job = ctypes.addressof(self.job)
        self._arrays = None
        self._stats = stats
        self._stats_at = {order: ctypes.addressof(counts)
                          for order, counts in stats.items()}

    def start(self, order, cur, nxt, below, above) -> bool:
        """Queue an ``order`` sweep on the worker pool; False (nothing
        started) when these arrays must take the numpy path (wrong
        type, shape, dtype or layout).

        The library reads each array's data pointer here, under the
        interpreter lock, and a worker then uses it without the lock.
        That is safe because this object holds a reference to every
        array until :meth:`join` (which ``__del__`` calls too), and an
        ndarray's data pointer cannot move while other references to
        it exist (``resize`` refuses)."""
        if self._arrays is not None:
            raise RuntimeError("a sweep of this workspace is already in "
                               "flight; join it first")
        shape, dtype = self.shape, self.dtype
        if not (_fits(cur, shape, dtype) and _fits(nxt, shape, dtype, _WRITABLE)
                and (below is None or _fits(below, self.plane, dtype))
                and (above is None or _fits(above, self.plane, dtype))):
            return False
        job = self.job
        job.kernel = self.kernels[order].address
        job.stats = self._stats_at.get(order)
        job.cur, job.nxt = id(cur), id(nxt)
        job.below = None if below is None else id(below)
        job.above = None if above is None else id(above)
        self._arrays = (cur, nxt, below, above)
        self._lib.start(self._job)
        return True

    def join(self):
        """Run what is left of the started sweep and wait for it: its
        diff, or None when ``nxt`` overlaps an input (nothing was
        written; take the numpy path).  ``job.bands`` is then how many
        bands it was split into and ``job.seconds`` their run times,
        summed over the threads that ran them; the join has counted both
        in the order's :class:`Stats`, if the workspace gave one."""
        if self._arrays is None:
            raise RuntimeError("no sweep of this workspace is in flight")
        status = self._lib.join(self._job)
        self._arrays = None
        return None if status else self.params.diff

    def run(self, order, cur, nxt, below, above):
        """:meth:`start` and :meth:`join`: the diff of an ``order``
        sweep, or None when these arrays must take the numpy path."""
        return self.join() if self.start(order, cur, nxt, below,
                                         above) else None

    def __del__(self):
        # A dropped workspace with a sweep in flight: the worker must be
        # done with its arrays before they can go.
        if self._arrays is not None:
            self.join()


def bake(ws, stats):
    """The compiled form of workspace ``ws``, or None (numpy kernels);
    ``stats`` maps an order to the :class:`Stats` its joins count in."""
    lib = load()
    if lib is None:
        return None
    shape = (ws.n_planes, ws.n, ws.n)
    terms = [_term(value, shape, ws.dtype)
             for value in (ws.db, ws.lower, ws.upper)]
    strong = _strength(ws.d, ws.dtype)
    if (None in terms or strong is None
            or _strength(ws.a, ws.dtype) is not strong):
        return None
    (db_kind, db_field), (lower_kind, lower), (upper_kind, upper) = terms
    params = Params(
        n=ws.n, m=ws.n_planes, has_a=bool(ws.a != 0.0),
        strong=strong,
        db_kind=db_kind, lower_kind=lower_kind, upper_kind=upper_kind,
        data_off=lib.data_off, d=ws.d, a=ws.a,
        db=float(ws.db) if db_kind == 1 else 0.0,
        db_field=db_field, lower=lower, upper=upper)
    return CompiledSweep(lib, params, (ws.db, ws.lower, ws.upper), shape,
                         ws.dtype, stats)
