"""Shared test fixtures.

The default resource context keeps an LRU of problem instances and
their reference solutions (:func:`repro.solvers.distributed_richardson.
get_problem`).  Within one test module that sharing is a deliberate
speed-up — both are read-only — but it must not leak across modules,
so the cache is dropped at every module boundary.

``REPRO_TEST_DTYPE`` selects the dtype lane the dtype-parameterized
suites run under (``float64`` default, ``float32`` in CI's second
equivalence lane); the :func:`repro_dtype` fixture is the single place
it is consumed.

The relaxation sweeps have two backends: compiled C (used whenever it
loads) and the numpy kernels (its fallback and bitwise oracle).
:func:`numpy_kernels` makes the workspaces a test builds use the numpy
kernels; :func:`kernel_backend` runs a test once per backend.  The
compiled library holds two instruction-set bodies, baseline and AVX2;
:func:`isa_body` runs a test once on each (the AVX2 run skips on a CPU
without AVX2).
"""

import os

import pytest

from repro.numerics import _ckernels
from repro.numerics.tolerances import resolve_dtype
from repro.solvers.distributed_richardson import clear_problem_cache


@pytest.fixture(autouse=True, scope="module")
def _isolated_problem_cache():
    """Clear the shared problem cache around every test module."""
    clear_problem_cache()
    yield
    clear_problem_cache()


@pytest.fixture(scope="session")
def repro_dtype():
    """The dtype under test: ``REPRO_TEST_DTYPE`` env var, float64 default.

    An invalid value fails the session loudly (resolve_dtype raises)
    instead of silently running the float64 lane twice.
    """
    return resolve_dtype(os.environ.get("REPRO_TEST_DTYPE") or None)


@pytest.fixture
def compiled_kernels():
    """The loaded compiled sweep library; skips where it cannot load."""
    lib = _ckernels.load()
    if lib is None:
        pytest.skip("the compiled sweeps are unavailable on this machine")
    return lib


@pytest.fixture
def numpy_kernels(monkeypatch):
    """Workspaces built during the test run the numpy kernels (worker
    processes forked meanwhile inherit the choice)."""
    monkeypatch.setattr(_ckernels, "_lib", None)


@pytest.fixture(params=["c", "numpy"])
def kernel_backend(request):
    """Run the test on the compiled sweeps, then on the numpy kernels."""
    if request.param == "c":
        request.getfixturevalue("compiled_kernels")
    else:
        request.getfixturevalue("numpy_kernels")
    return request.param


@pytest.fixture(params=["baseline", "avx2"])
def isa_body(request, compiled_kernels, monkeypatch):
    """Run the test on the compiled baseline body, then on the AVX2 one:
    workspaces built during the test bind it (worker processes forked
    meanwhile inherit the choice)."""
    isa = request.param
    if isa not in compiled_kernels.bodies:
        pytest.skip(f"this CPU does not run the {isa} body")
    monkeypatch.setattr(compiled_kernels, "isa", isa)
    return isa
