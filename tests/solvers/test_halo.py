"""Block-local relaxation: equivalence with the sequential solver."""

import numpy as np
import pytest

# The lockstep tests use tol=1e-300 as "never converge, run exactly N
# sweeps" — deliberately below the float64 termination floor, so the
# solver's sub-floor RuntimeWarning is expected noise here.
pytestmark = pytest.mark.filterwarnings(
    "ignore:tol=.*termination floor:RuntimeWarning"
)

from repro.numerics.blocks import BlockAssignment
from repro.numerics.obstacle import membrane_problem, torsion_problem
from repro.numerics.richardson import FLOPS_PER_POINT, projected_richardson
from repro.solvers.halo import BlockState


def distributed_jacobi_lockstep(problem, n_nodes, n_sweeps, local_sweep="jacobi"):
    """Drive BlockStates by hand in lockstep (no network): after each
    sweep, ghosts exchange exactly like the synchronous scheme."""
    n = problem.grid.n
    assignment = BlockAssignment.balanced(n, n_nodes)
    states = [
        BlockState(problem=problem, lo=r.start, hi=r.stop,
                   delta=problem.jacobi_delta(), local_sweep=local_sweep)
        for r in assignment.ranges
    ]
    for _ in range(n_sweeps):
        for s in states:
            s.sweep()
        for k, s in enumerate(states):
            if k > 0:
                s.update_ghost_below(states[k - 1].last_plane.copy())
            if k < n_nodes - 1:
                s.update_ghost_above(states[k + 1].first_plane.copy())
    return np.concatenate([s.block for s in states], axis=0)


class TestLockstepEquivalence:
    @pytest.mark.parametrize("n_nodes", [1, 2, 3, 4])
    def test_jacobi_lockstep_equals_sequential_jacobi(self, n_nodes):
        """With local Jacobi sweeps and per-sweep ghost exchange, the
        distributed iterate IS the sequential Jacobi iterate, exactly."""
        problem = membrane_problem(8)
        sweeps = 20
        u_dist = distributed_jacobi_lockstep(problem, n_nodes, sweeps)
        seq = projected_richardson(
            problem, tol=1e-300, max_relaxations=sweeps, sweep="jacobi"
        )
        np.testing.assert_allclose(u_dist, seq.u, atol=1e-13)

    @pytest.mark.parametrize("n_nodes", [2, 3])
    def test_jacobi_lockstep_equals_sequential_on_torsion(self, n_nodes):
        """The same identity on the two-sided (torsion) constraint: the
        projection is plane-local, so blocking cannot change it."""
        problem = torsion_problem(8)
        sweeps = 12
        u_dist = distributed_jacobi_lockstep(problem, n_nodes, sweeps)
        seq = projected_richardson(
            problem, tol=1e-300, max_relaxations=sweeps, sweep="jacobi"
        )
        np.testing.assert_allclose(u_dist, seq.u, atol=1e-13)

    def test_gauss_seidel_single_node_equals_sequential_gs(self):
        problem = torsion_problem(8)
        sweeps = 15
        u_dist = distributed_jacobi_lockstep(
            problem, 1, sweeps, local_sweep="gauss_seidel"
        )
        seq = projected_richardson(
            problem, tol=1e-300, max_relaxations=sweeps, sweep="gauss_seidel"
        )
        np.testing.assert_allclose(u_dist, seq.u, atol=1e-13)

    def test_gs_within_blocks_still_converges_to_same_fixed_point(self):
        problem = membrane_problem(8)
        u_dist = distributed_jacobi_lockstep(
            problem, 4, 2000, local_sweep="gauss_seidel"
        )
        seq = projected_richardson(problem, tol=1e-10, sweep="jacobi")
        assert np.max(np.abs(u_dist - seq.u)) < 1e-8


class TestBlockState:
    def test_boundary_nodes_have_no_outer_ghost(self):
        p = membrane_problem(6)
        top = BlockState(problem=p, lo=0, hi=2, delta=p.jacobi_delta())
        bottom = BlockState(problem=p, lo=4, hi=6, delta=p.jacobi_delta())
        assert top.ghost_below is None
        assert bottom.ghost_above is None
        with pytest.raises(RuntimeError):
            top.update_ghost_below(np.zeros((6, 6)))

    def test_top_block_refuses_a_ghost_above(self):
        p = membrane_problem(6)
        bottom = BlockState(problem=p, lo=4, hi=6, delta=p.jacobi_delta())
        with pytest.raises(RuntimeError, match="domain boundary above"):
            bottom.update_ghost_above(np.zeros((6, 6)))

    def test_first_last_plane_views(self):
        p = membrane_problem(6)
        s = BlockState(problem=p, lo=2, hi=5, delta=p.jacobi_delta())
        assert np.shares_memory(s.first_plane, s.block[0])
        assert np.shares_memory(s.last_plane, s.block[-1])
        assert s.n_planes == 3

    def test_warm_start(self):
        p = membrane_problem(6)
        s = BlockState(problem=p, lo=0, hi=3, delta=p.jacobi_delta())
        snapshot = np.random.default_rng(0).normal(size=(3, 6, 6))
        s.warm_start(snapshot)
        np.testing.assert_array_equal(s.block, snapshot)
        with pytest.raises(ValueError):
            s.warm_start(np.zeros((2, 6, 6)))

    def test_invalid_range(self):
        p = membrane_problem(6)
        with pytest.raises(ValueError):
            BlockState(problem=p, lo=3, hi=3, delta=0.1)
        with pytest.raises(ValueError):
            BlockState(problem=p, lo=0, hi=7, delta=0.1)

    def test_invalid_sweep_mode(self):
        p = membrane_problem(6)
        with pytest.raises(ValueError):
            BlockState(problem=p, lo=0, hi=2, delta=0.1, local_sweep="sor")

    def test_flops_scale_with_planes(self):
        p = membrane_problem(8)
        s2 = BlockState(problem=p, lo=0, hi=2, delta=0.1)
        s4 = BlockState(problem=p, lo=0, hi=4, delta=0.1)
        assert s4.flops() == pytest.approx(2 * s2.flops())
        assert s4.flops() == FLOPS_PER_POINT * 8 * 8 * 4

    def test_sweeps_and_their_charges_import_nothing(self, monkeypatch):
        """The solver charges flops() once per sweep: neither may run an
        import statement on the way."""
        import builtins

        p = membrane_problem(8)
        s = BlockState(problem=p, lo=2, hi=6, delta=p.jacobi_delta())
        imports = []
        real_import = builtins.__import__

        def counting_import(*args, **kwargs):
            imports.append(args[0])
            return real_import(*args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", counting_import)
        for _ in range(100):
            s.sweep()
            s.flops()
        monkeypatch.undo()
        assert imports == []

    def test_sweep_reduces_diff_over_time(self):
        p = membrane_problem(8)
        s = BlockState(problem=p, lo=0, hi=8, delta=p.jacobi_delta())
        first = s.sweep()
        for _ in range(50):
            last = s.sweep()
        assert last < first

    def test_stale_ghosts_still_converge_locally(self):
        """With frozen (delayed) ghosts the block iteration still
        converges — to the fixed point *given those ghosts* (the
        asynchronous-iterations picture)."""
        p = membrane_problem(8)
        s = BlockState(problem=p, lo=2, hi=6, delta=p.jacobi_delta())
        for _ in range(4000):
            d = s.sweep()
        assert d < 1e-12


class TestSplitPhase:
    """Between begin_sweep() and finish_sweep() the block is in flight:
    no second dispatch, no collect without a dispatch, no ghost write,
    no boundary-plane read, no export."""

    def test_guards(self):
        problem = membrane_problem(8)
        state = BlockState(problem=problem, lo=2, hi=6,
                           delta=problem.jacobi_delta())
        with pytest.raises(RuntimeError, match="no sweep in flight"):
            state.finish_sweep()
        state.begin_sweep()
        assert state.sweep_in_flight
        with pytest.raises(RuntimeError, match="already in flight"):
            state.begin_sweep()
        for write in (state.update_ghost_above, state.update_ghost_below):
            with pytest.raises(RuntimeError, match="in flight"):
                write(np.zeros((8, 8)))
        for read in (lambda: state.first_plane, lambda: state.last_plane,
                     state.export_block):
            with pytest.raises(RuntimeError, match="in flight"):
                read()
        assert np.isfinite(state.finish_sweep())
        with pytest.raises(RuntimeError, match="no sweep in flight"):
            state.finish_sweep()

    @pytest.mark.parametrize("local_sweep", ["gauss_seidel", "jacobi"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_split_phase_equals_sweep(self, local_sweep, dtype):
        """begin_sweep()/finish_sweep() is sweep() cut in two: same
        diffs, same iterate, bit for bit, sweep after sweep."""
        problem = membrane_problem(8)

        def state():
            return BlockState(problem=problem, lo=2, hi=6,
                              delta=problem.jacobi_delta(), dtype=dtype,
                              local_sweep=local_sweep)

        whole, split = state(), state()
        for _ in range(5):
            split.begin_sweep()
            assert split.finish_sweep() == whole.sweep()
            assert np.array_equal(split.block, whole.block)
        assert split.block.dtype == np.dtype(dtype)

    def test_abort_keeps_the_swept_iterate_and_is_idempotent(self):
        problem = membrane_problem(8)
        aborted = BlockState(problem=problem, lo=0, hi=4,
                             delta=problem.jacobi_delta())
        finished = BlockState(problem=problem, lo=0, hi=4,
                              delta=problem.jacobi_delta())
        aborted.begin_sweep()
        aborted.abort_sweep()
        aborted.abort_sweep()
        finished.sweep()
        assert not aborted.sweep_in_flight
        assert np.array_equal(aborted.export_block(), finished.block)
        with pytest.raises(RuntimeError, match="no sweep in flight"):
            aborted.finish_sweep()

    def test_a_new_sweep_may_begin_after_an_abort(self):
        problem = membrane_problem(8)
        state = BlockState(problem=problem, lo=0, hi=4,
                           delta=problem.jacobi_delta())
        state.begin_sweep()
        state.abort_sweep()
        state.begin_sweep()
        assert np.isfinite(state.finish_sweep())

    def test_warm_start_refused_while_in_flight(self):
        problem = membrane_problem(8)
        state = BlockState(problem=problem, lo=0, hi=4,
                           delta=problem.jacobi_delta())
        checkpoint = np.zeros_like(state.block)
        state.begin_sweep()
        with pytest.raises(RuntimeError, match="warm-start"):
            state.warm_start(checkpoint)
        state.finish_sweep()
        state.warm_start(checkpoint)
        assert not state.block.any()


class TestRelease:
    """Every teardown path — normal report, Calculate()'s finally, a
    fault-injection abort — calls release() without coordinating with
    the others, so it must be idempotent and drain in-flight work."""

    def _state(self):
        problem = membrane_problem(8)
        return BlockState(problem=problem, lo=0, hi=8,
                          delta=problem.jacobi_delta())

    def test_release_is_idempotent(self):
        state = self._state()
        state.sweep()
        state.release()
        state.release()
        state.release()

    def test_release_drains_an_in_flight_sweep(self):
        state = self._state()
        state.begin_sweep()
        state.release()  # must not raise or orphan the sweep
        assert not state.sweep_in_flight
        state.release()

    def test_block_survives_release(self):
        state = self._state()
        before = np.array(state.block, copy=True)
        state.release()
        assert np.array_equal(state.block, before)
