"""End-to-end: the DES solver with executor="process" vs "inline".

The executor only moves the sweep's numerics into worker processes; the
simulated network, the mode logic, and the termination protocol are
untouched.  Every observable of the solve must therefore be identical:
relaxation counts, termination decisions, per-peer counters, and the
assembled iterate (bit-for-bit, inside the ≤1e-12 contract).
"""

import numpy as np
import pytest

from repro.core import P2PDC
from repro.simnet import Simulator, nicta_testbed
from repro.solvers import ObstacleApplication

N = 12
TOL = 1e-5


def solve(n_peers, scheme, executor, clusters=1, extra=None):
    sim = Simulator()
    net = nicta_testbed(sim, max(n_peers, clusters), n_clusters=clusters)
    env = P2PDC(sim, net)
    env.register_everywhere(ObstacleApplication(executor=executor))
    params = {"n": N, "tol": TOL}
    if extra:
        params.update(extra)
    return env.run_to_completion(
        "obstacle", params=params, n_peers=n_peers, scheme=scheme,
        timeout=1e6,
    )


@pytest.mark.parametrize("scheme", ["synchronous", "asynchronous"])
def test_process_executor_matches_inline_at_lane_dtype(scheme, repro_dtype):
    """The inline/process equivalence holds at either precision: same
    kernels, same layout, same dtype ⇒ identical observables."""
    extra = {"dtype": repro_dtype.name}
    inline = solve(3, scheme, "inline", extra=extra).output
    process = solve(3, scheme, "process", extra=extra).output
    assert inline.u.dtype == repro_dtype
    assert process.u.dtype == repro_dtype
    assert process.relaxations == inline.relaxations
    assert np.array_equal(process.u, inline.u)
    for pi, pp in zip(inline.per_peer, process.per_peer):
        assert pp.final_diff == pi.final_diff


def test_float32_tolerance_below_floor_rejected():
    # The solver's ValueError surfaces as the environment's
    # "sub-task(s) failed" RuntimeError, message preserved.
    with pytest.raises(RuntimeError, match="termination floor"):
        solve(2, "synchronous", "inline",
              extra={"dtype": "float32", "tol": 1e-7})


@pytest.mark.parametrize("scheme", ["synchronous", "asynchronous", "hybrid"])
def test_process_executor_matches_inline(scheme):
    inline = solve(3, scheme, "inline").output
    process = solve(3, scheme, "process").output
    assert process.relaxations == inline.relaxations
    assert np.array_equal(process.u, inline.u)
    for pi, pp in zip(inline.per_peer, process.per_peer):
        assert pp.relaxations == pi.relaxations
        assert pp.converged_at == pi.converged_at
        assert pp.final_diff == pi.final_diff
        assert pp.sends == pi.sends and pp.receives == pi.receives


def test_single_peer_process_executor():
    inline = solve(1, "synchronous", "inline").output
    process = solve(1, "synchronous", "process").output
    assert process.relaxations == inline.relaxations
    assert np.array_equal(process.u, inline.u)


def test_executor_workers_can_be_fewer_than_peers():
    inline = solve(3, "synchronous", "inline").output
    process = solve(3, "synchronous", "process",
                    extra={"executor_workers": 1}).output
    assert process.relaxations == inline.relaxations
    assert np.array_equal(process.u, inline.u)


def test_unknown_executor_rejected():
    with pytest.raises(ValueError, match="unknown executor"):
        solve(2, "synchronous", "gpu")


def test_application_executor_defaults_to_inline():
    assert ObstacleApplication().executor == "inline"
    assert ObstacleApplication(executor="process").executor == "process"


def test_executor_in_params_rejected():
    """The executor is an application argument, not a solve param: a
    params key would ride the modeled SUBTASK payload and change
    simulated time, so it is refused instead of silently ignored."""
    with pytest.raises(RuntimeError,
                       match=r"ObstacleApplication\(executor=\.\.\.\)"):
        solve(2, "synchronous", "inline", extra={"executor": "process"})


def test_failed_solve_releases_shared_runner():
    """Regression: an aborting solve must not leak the worker pool, the
    shm segment, or a poisoned refcount in the shared-runner registry."""
    from repro.resources import default_context

    # Failure while constructing the runner (workers > shards).
    with pytest.raises(Exception):
        solve(2, "synchronous", "process", extra={"executor_workers": 5})
    assert default_context().runners == {}
    # Failure mid-solve, after the runner was acquired.
    with pytest.raises(Exception):
        solve(1, "synchronous", "process", extra={"max_relaxations": 1})
    assert default_context().runners == {}
    # The registry is clean: the same configuration solves fine now.
    ok = solve(2, "synchronous", "process").output
    assert ok.relaxations > 0
    assert default_context().runners == {}


def test_process_executor_simulated_time_unchanged():
    """The DES models the testbed: moving numerics off-process must not
    change simulated time by a single tick."""
    a = solve(2, "synchronous", "inline")
    b = solve(2, "synchronous", "process")
    assert a.elapsed == b.elapsed


@pytest.mark.parametrize("scheme", ["asynchronous", "hybrid"])
def test_split_phase_simulated_time_unchanged_across_executors(scheme):
    """Overlapped process sweeps are a wall-clock property only: the
    order-sensitive schemes land on the same simulated time too."""
    a = solve(2, scheme, "inline")
    b = solve(2, scheme, "process")
    assert a.elapsed == b.elapsed
    assert a.output.relaxations == b.output.relaxations
    assert np.array_equal(a.output.u, b.output.u)
