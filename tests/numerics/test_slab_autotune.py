"""Adaptive slab auto-tuning (the ROADMAP open item).

With no ``REPRO_SLAB_BYTES`` override the first workspace construction
times the candidate working-set targets once and keeps the winner; the
override, when present, seeds the choice and skips the measurement
entirely.  Tuning is perf-only: slab partitioning is bit-transparent to
sweep results (asserted by the kernel equivalence suite), so no
numerical test here — only the tuning protocol.
"""

import pytest

from repro.numerics import kernels
from repro.numerics.kernels import (
    SweepWorkspace,
    autotune_slab_bytes,
    clear_slab_autotune,
)
from repro.numerics.obstacle import membrane_problem
from repro.resources import default_context


@pytest.fixture(autouse=True)
def fresh_tuner(monkeypatch):
    """Isolate each test from the process-wide cached verdict."""
    monkeypatch.delenv("REPRO_SLAB_BYTES", raising=False)
    clear_slab_autotune()
    yield
    clear_slab_autotune()


def test_first_call_measures_and_caches(monkeypatch):
    calls = []

    def fake_measure(*a, **k):
        calls.append(1)
        return kernels._SLAB_CANDIDATES[1]

    monkeypatch.setattr(kernels, "_measure_slab_candidates", fake_measure)
    assert autotune_slab_bytes() == kernels._SLAB_CANDIDATES[1]
    assert autotune_slab_bytes() == kernels._SLAB_CANDIDATES[1]
    assert len(calls) == 1  # measured once, cached after


def test_winner_is_a_candidate():
    assert autotune_slab_bytes() in kernels._SLAB_CANDIDATES


def test_env_override_seeds_choice_and_skips_measurement(monkeypatch):
    def exploding_measure(*a, **k):  # pragma: no cover - must not run
        raise AssertionError("measurement ran despite the env override")

    monkeypatch.setattr(kernels, "_measure_slab_candidates",
                        exploding_measure)
    monkeypatch.setenv("REPRO_SLAB_BYTES", "4096")
    assert autotune_slab_bytes() == 4096
    # Workspace construction consults the same path.
    problem = membrane_problem(16)
    assert SweepWorkspace(problem, problem.jacobi_delta()).slab == 2


def test_workspace_construction_triggers_tuning(monkeypatch):
    chosen = 1 << 21
    monkeypatch.setattr(kernels, "_measure_slab_candidates",
                        lambda *a, **k: chosen)
    problem = membrane_problem(16)
    SweepWorkspace(problem, problem.jacobi_delta())
    assert default_context().slab_bytes == chosen


def test_explicit_slab_argument_bypasses_tuner(monkeypatch):
    def exploding_measure(*a, **k):  # pragma: no cover - must not run
        raise AssertionError("tuner consulted despite explicit slab")

    monkeypatch.setattr(kernels, "_measure_slab_candidates",
                        exploding_measure)
    problem = membrane_problem(16)
    assert SweepWorkspace(problem, problem.jacobi_delta(), slab=5).slab == 5


def test_measurement_grid_separates_candidates():
    """At the tuning size the two candidates must select different slab
    partitionings — otherwise the measurement compares nothing."""
    n = 48
    slabs = {kernels._default_slab(n, n, 8, target=t)
             for t in kernels._SLAB_CANDIDATES}
    assert len(slabs) == len(kernels._SLAB_CANDIDATES)
