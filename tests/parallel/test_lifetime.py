"""Runner/pool lifetime hardening + delta rebind (campaign keep-alive).

Campaign keep-alive stretches pool lifetimes across many solves, which
makes lifetime bugs — double release, use-after-close — likelier; they
must fail loudly instead of corrupting the shared registry or hanging
on a dead worker pipe.
"""

import numpy as np
import pytest

from repro.parallel import (
    ParallelBlockRunner,
    acquire_shared_runner,
    rebind_shared_runner,
    release_shared_runner,
)
from repro.resources import default_context
from repro.solvers.distributed_richardson import get_problem

N = 12
RANGES = [(0, 6), (6, N)]


def _delta():
    return get_problem("membrane", N).jacobi_delta()


class TestReleaseHardening:
    def test_double_release_raises(self):
        runner = acquire_shared_runner("membrane", N, ranges=RANGES,
                                       delta=_delta())
        release_shared_runner(runner)
        with pytest.raises(RuntimeError, match="double release|not in"):
            release_shared_runner(runner)
        assert default_context().runners == {}

    def test_release_of_unregistered_runner_raises(self):
        runner = ParallelBlockRunner("membrane", N, ranges=RANGES)
        try:
            with pytest.raises(RuntimeError, match="not in the shared"):
                release_shared_runner(runner)
        finally:
            runner.close()

    def test_over_release_does_not_poison_registry(self):
        """After the error, the same configuration acquires cleanly."""
        runner = acquire_shared_runner("membrane", N, ranges=RANGES,
                                       delta=_delta())
        release_shared_runner(runner)
        with pytest.raises(RuntimeError):
            release_shared_runner(runner)
        fresh = acquire_shared_runner("membrane", N, ranges=RANGES,
                                      delta=_delta())
        try:
            assert np.isfinite(fresh.sweep(0))
        finally:
            release_shared_runner(fresh)


class TestUseAfterClose:
    def test_runner_plane_access_raises(self):
        runner = ParallelBlockRunner("membrane", N, ranges=RANGES)
        runner.close()
        for call in (lambda: runner.block(0),
                     lambda: runner.sweep(0),
                     lambda: runner.gather(),
                     lambda: runner.exchange_ghosts(),
                     lambda: runner.rebind_delta(0.1),
                     lambda: runner.set_ghost_below(
                         1, np.zeros((N, N)))):
            with pytest.raises(RuntimeError, match="closed"):
                call()

    def test_pool_submit_collect_raise(self):
        runner = ParallelBlockRunner("membrane", N, ranges=RANGES)
        pool = runner.pool
        runner.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(0, 0, "gauss_seidel")
        with pytest.raises(RuntimeError, match="closed"):
            pool.collect(0)
        with pytest.raises(RuntimeError, match="closed"):
            pool.rebind(0.1)


class TestAsyncSteppingLifetime:
    """Split-phase (begin/collect) lifetime hardening: asynchronous
    stepping keeps sweeps in flight across DES turns, so every way of
    losing track of one must raise instead of hanging or corrupting
    the arena."""

    def test_collect_after_close_raises_closed(self):
        runner = ParallelBlockRunner("membrane", N, ranges=RANGES)
        runner.submit_sweep(0)
        runner.close(discard_pending=True)
        with pytest.raises(RuntimeError, match="closed"):
            runner.wait_sweep(0)

    def test_double_collect_raises(self):
        with ParallelBlockRunner("membrane", N, ranges=RANGES) as runner:
            runner.submit_sweep(0)
            runner.wait_sweep(0)
            with pytest.raises(RuntimeError, match="double collect"):
                runner.wait_sweep(0)

    def test_orphaned_sweeps_at_close_raise(self):
        runner = ParallelBlockRunner("membrane", N, ranges=RANGES)
        try:
            runner.submit_sweep(0)
            runner.submit_sweep(1)
            with pytest.raises(RuntimeError, match="still in flight"):
                runner.close()
        finally:
            runner.close(discard_pending=True)

    def test_discard_pending_drains_and_rotates(self):
        """Discarded sweeps still rotate their shard's buffers, so the
        arena stays consistent for a later inspection."""
        with ParallelBlockRunner("membrane", N, ranges=RANGES) as runner:
            before = runner.gather()
            runner.submit_sweep(0)
            assert runner.discard_pending_sweeps() == [0]
            after = runner.gather()  # raises if the state machine broke
            assert after.shape == before.shape
            assert not np.array_equal(after[: RANGES[0][1]],
                                      before[: RANGES[0][1]])

    def test_context_exit_with_exception_discards_pending(self):
        """An exception propagating out of a `with` block must not be
        masked by the orphan-sweep error."""
        with pytest.raises(KeyError, match="boom"):
            with ParallelBlockRunner("membrane", N, ranges=RANGES) as runner:
                runner.submit_sweep(0)
                raise KeyError("boom")

    def test_failed_sweep_leaves_runner_closable(self):
        """A worker-side sweep failure consumes the command: the shard
        must leave the pending set (the error reply was its reply), so
        a plain close() afterwards neither hangs draining a command
        that no longer exists nor raises an orphan-sweep error that
        would mask the worker's diagnostic."""
        runner = ParallelBlockRunner("membrane", N, ranges=RANGES)
        try:
            runner.submit_sweep(0, order="bogus-order")
            with pytest.raises(RuntimeError, match="failed sweeping"):
                runner.wait_sweep(0)
            assert runner._pending == set()
        finally:
            runner.close()  # clean close: nothing pending, no mask

    def test_blockstate_split_phase_guards(self):
        from repro.solvers.halo import BlockState

        problem = get_problem("membrane", N)
        with ParallelBlockRunner("membrane", N, ranges=RANGES) as runner:
            state = BlockState(problem=problem, lo=0, hi=6,
                               delta=runner.delta, executor="process",
                               runner=runner)
            with pytest.raises(RuntimeError, match="no sweep in flight"):
                state.finish_sweep()
            state.begin_sweep()
            with pytest.raises(RuntimeError, match="already in flight"):
                state.begin_sweep()
            with pytest.raises(RuntimeError, match="in flight"):
                state.update_ghost_above(np.zeros((N, N)))
            with pytest.raises(RuntimeError, match="in flight"):
                _ = state.last_plane
            assert np.isfinite(state.finish_sweep())

    def test_blockstate_release_drains_inflight_sweep(self):
        """release() on an aborting peer drains its in-flight sweep, so
        the shared runner closes cleanly afterwards (no orphan raise)."""
        from repro.solvers.halo import BlockState

        problem = get_problem("membrane", N)
        runner = ParallelBlockRunner("membrane", N, ranges=RANGES)
        try:
            state = BlockState(problem=problem, lo=0, hi=6,
                               delta=runner.delta, executor="process",
                               runner=runner)
            state.begin_sweep()
            state.release()
            assert not state.sweep_in_flight
        finally:
            runner.close()  # must NOT raise: nothing is pending


class TestRebindDelta:
    def test_rebound_runner_matches_cold_pool(self):
        """Rebinding a live pool must equal tearing down + rebuilding."""
        problem = get_problem("membrane", N)
        d0, d1 = problem.jacobi_delta(), problem.jacobi_delta() * 0.85
        u0 = problem.feasible_start()
        with ParallelBlockRunner("membrane", N, ranges=RANGES,
                                 delta=d0) as live, \
                ParallelBlockRunner("membrane", N, ranges=RANGES,
                                    delta=d1) as cold:
            live.sweep_all()  # dirty the arena first
            live.rebind_delta(d1)
            live.scatter(u0)
            for _ in range(3):
                assert live.step_synchronous() == cold.step_synchronous()
            assert np.array_equal(live.gather(), cold.gather())
            assert live.delta == d1

    def test_rebind_with_sweep_in_flight_raises(self):
        with ParallelBlockRunner("membrane", N, ranges=RANGES) as runner:
            runner.submit_sweep(0)
            with pytest.raises(RuntimeError, match="in flight"):
                runner.rebind_delta(0.1)
            runner.wait_sweep(0)

    def test_rebind_rejects_bad_delta(self):
        with ParallelBlockRunner("membrane", N, ranges=RANGES) as runner:
            with pytest.raises(ValueError):
                runner.rebind_delta(-1.0)


class TestSharedRebind:
    def test_rekeys_registry(self):
        d0 = _delta()
        runner = acquire_shared_runner("membrane", N, ranges=RANGES,
                                       delta=d0)
        try:
            rebind_shared_runner(runner, d0 * 0.9)
            # The new key serves the same live runner...
            again = acquire_shared_runner("membrane", N, ranges=RANGES,
                                          delta=d0 * 0.9)
            assert again is runner
            release_shared_runner(again)
            # ...and the old key now builds a distinct one.
            old = acquire_shared_runner("membrane", N, ranges=RANGES,
                                        delta=d0)
            assert old is not runner
            release_shared_runner(old)
        finally:
            release_shared_runner(runner)
        assert default_context().runners == {}

    def test_refuses_with_other_holders(self):
        d0 = _delta()
        a = acquire_shared_runner("membrane", N, ranges=RANGES, delta=d0)
        b = acquire_shared_runner("membrane", N, ranges=RANGES, delta=d0)
        try:
            with pytest.raises(RuntimeError, match="references"):
                rebind_shared_runner(a, d0 * 0.9)
        finally:
            release_shared_runner(a)
            release_shared_runner(b)

    def test_same_delta_is_a_noop(self):
        d0 = _delta()
        runner = acquire_shared_runner("membrane", N, ranges=RANGES,
                                       delta=d0)
        try:
            rebind_shared_runner(runner, d0)
            assert runner.delta == d0
        finally:
            release_shared_runner(runner)

    def test_unregistered_runner_rejected(self):
        runner = ParallelBlockRunner("membrane", N, ranges=RANGES)
        try:
            with pytest.raises(RuntimeError, match="not in the shared"):
                rebind_shared_runner(runner, 0.1)
        finally:
            runner.close()


class TestShardLabels:
    """Orphaned-sweep errors name the owning peer, not just the shard."""

    def test_close_with_pending_names_the_owning_peer(self):
        runner = ParallelBlockRunner("membrane", N, ranges=RANGES)
        try:
            runner.label_shard(1, "rank 1 (peer01)")
            runner.submit_sweep(1)
            with pytest.raises(RuntimeError,
                               match=r"1 \[rank 1 \(peer01\)\]"):
                runner.close()
            runner.wait_sweep(1)
        finally:
            runner.close(discard_pending=True)

    def test_rebind_with_pending_names_the_owning_peer(self):
        runner = ParallelBlockRunner("membrane", N, ranges=RANGES)
        try:
            runner.label_shard(0, "rank 0 (peer00)")
            runner.submit_sweep(0)
            with pytest.raises(RuntimeError,
                               match=r"0 \[rank 0 \(peer00\)\]"):
                runner.rebind_delta(runner.delta / 2)
            runner.wait_sweep(0)
        finally:
            runner.close(discard_pending=True)

    def test_labels_are_clearable_and_optional(self):
        with ParallelBlockRunner("membrane", N, ranges=RANGES) as runner:
            runner.label_shard(0, "rank 0 (peer00)")
            assert runner.describe_shards({0, 1}) == \
                "0 [rank 0 (peer00)], 1"
            runner.label_shard(0, None)
            assert runner.describe_shards({0, 1}) == "0, 1"
