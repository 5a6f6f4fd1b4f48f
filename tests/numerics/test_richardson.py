"""Sequential projected Richardson: convergence, LCP optimality, theory."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics.blocks import BlockAssignment, partition_planes, weighted_partition
from repro.numerics.convergence import DiffCriterion, ResidualHistory, max_diff
from repro.numerics.grid import Grid3D
from repro.numerics.obstacle import (
    ObstacleProblem,
    membrane_problem,
    options_pricing_problem,
    torsion_problem,
)
from repro.numerics.projection import unconstrained
from repro.numerics.richardson import projected_richardson


class TestConvergence:
    @pytest.mark.parametrize("sweep", ["jacobi", "gauss_seidel"])
    def test_converges_and_satisfies_lcp(self, sweep):
        p = membrane_problem(10)
        res = projected_richardson(p, tol=1e-8, sweep=sweep)
        assert res.converged
        u = res.u
        # Feasibility.
        assert p.constraint.contains(u, atol=1e-9)
        # On the contact set, u equals the obstacle; off it, residual ~ 0.
        r = p.apply_A(u) - p.b
        at_lower = np.isclose(u, p.constraint.lower, atol=1e-7)
        interior = ~at_lower
        assert np.max(np.abs(r[interior])) < 1e-3 * p.diag
        assert np.all(r[at_lower] > -1e-3 * p.diag)

    def test_gauss_seidel_not_slower_than_jacobi(self):
        p = membrane_problem(10)
        rj = projected_richardson(p, tol=1e-7, sweep="jacobi")
        rg = projected_richardson(p, tol=1e-7, sweep="gauss_seidel")
        assert rg.relaxations <= rj.relaxations

    def test_same_fixed_point_both_sweeps(self):
        p = torsion_problem(8)
        rj = projected_richardson(p, tol=1e-9, sweep="jacobi")
        rg = projected_richardson(p, tol=1e-9, sweep="gauss_seidel")
        assert np.max(np.abs(rj.u - rg.u)) < 1e-6

    def test_fixed_point_property(self):
        """At convergence, u ≈ F_δ(u)."""
        p = membrane_problem(8)
        res = projected_richardson(p, tol=1e-10)
        assert p.residual_norm(res.u) < 1e-8

    def test_unconstrained_reduces_to_linear_solve(self):
        """With K = V the method solves A·u = b."""
        from repro.numerics.grid import Grid3D
        from repro.numerics.obstacle import ObstacleProblem
        from repro.numerics.projection import unconstrained

        grid = Grid3D(6)
        p = ObstacleProblem(grid=grid, b=grid.full(1.0),
                            constraint=unconstrained(), name="linear")
        res = projected_richardson(p, tol=1e-10, max_relaxations=500_000)
        resid = p.apply_A(res.u) - p.b
        assert np.max(np.abs(resid)) < 1e-5 * p.diag

    def test_warm_start_converges_faster(self):
        p = membrane_problem(10)
        cold = projected_richardson(p, tol=1e-7)
        warm = projected_richardson(p, tol=1e-7, u0=cold.u)
        assert warm.relaxations < cold.relaxations / 2

    def test_max_relaxations_cap(self):
        p = membrane_problem(10)
        res = projected_richardson(p, tol=1e-14, max_relaxations=5)
        assert not res.converged
        assert res.relaxations == 5

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            projected_richardson(membrane_problem(4), delta=-1.0)

    def test_callback_sees_every_relaxation(self):
        p = membrane_problem(6)
        seen = []
        res = projected_richardson(
            p, tol=1e-6, callback=lambda it, d: seen.append((it, d))
        )
        assert len(seen) == res.relaxations
        assert seen[0][0] == 1

    def test_history_monotone_for_jacobi_from_feasible_start(self):
        p = membrane_problem(8)
        res = projected_richardson(p, tol=1e-8, sweep="jacobi")
        # Mild slack: the diff sequence of a contraction is ~monotone.
        violations = sum(
            1 for a, b in zip(res.history.values, res.history.values[1:])
            if b > a * 1.05
        )
        assert violations == 0

    def test_optimal_delta_beats_small_delta(self):
        p = membrane_problem(8)
        r_opt = projected_richardson(p, delta=p.optimal_delta(), tol=1e-6,
                                     sweep="jacobi")
        r_small = projected_richardson(p, delta=p.optimal_delta() / 4,
                                       tol=1e-6, sweep="jacobi",
                                       max_relaxations=500_000)
        assert r_opt.relaxations < r_small.relaxations


class TestComplementarity:
    """``complementarity_error`` scores the LCP conditions directly:
    feasibility, a vanishing residual strictly inside K, and the right
    residual sign on each obstacle."""

    @pytest.mark.parametrize("factory", [
        membrane_problem, torsion_problem, options_pricing_problem,
    ], ids=["membrane", "torsion", "options"])
    def test_solution_satisfies_the_lcp(self, factory):
        p = factory(8)
        res = projected_richardson(p, tol=1e-11)
        assert res.converged
        assert p.complementarity_error(res.u) < 1e-6
        assert p.complementarity_error(p.feasible_start()) > 1.0

    def test_infeasible_point_is_charged_its_violation(self):
        p = membrane_problem(8)
        u = projected_richardson(p, tol=1e-11).u
        u[4, 4, 4] = p.constraint.lower[4, 4, 4] - 0.5
        assert p.complementarity_error(u) >= 0.5

    def test_unconstrained_error_is_the_residual(self):
        grid = Grid3D(4)
        p = ObstacleProblem(grid=grid, b=grid.full(3.0),
                            constraint=unconstrained(), name="linear-4")
        assert p.complementarity_error(grid.zeros()) == 3.0

    def test_unknown_sweep_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep"):
            projected_richardson(membrane_problem(4), sweep="sor")


class TestDiffCriterion:
    def test_single_shot(self):
        c = DiffCriterion(tol=1e-3)
        assert not c.check(1.0)
        assert c.check(1e-4)

    def test_consecutive_hysteresis(self):
        c = DiffCriterion(tol=1e-3, consecutive=3)
        assert not c.check(1e-4)
        assert not c.check(1e-4)
        assert c.check(1e-4)

    def test_streak_resets(self):
        c = DiffCriterion(tol=1e-3, consecutive=2)
        c.check(1e-4)
        c.check(1.0)  # reset
        assert not c.check(1e-4)
        assert c.check(1e-4)

    def test_non_finite_rejected(self):
        c = DiffCriterion(tol=1e-3)
        with pytest.raises(ValueError):
            c.check(float("nan"))

    def test_validation(self):
        with pytest.raises(ValueError):
            DiffCriterion(tol=0)
        with pytest.raises(ValueError):
            DiffCriterion(tol=1.0, consecutive=0)


class TestResidualHistory:
    def test_final_and_len(self):
        h = ResidualHistory()
        for v in (3.0, 2.0, 1.0):
            h.append(v)
        assert len(h) == 3 and h.final == 1.0

    def test_empty_final_raises(self):
        with pytest.raises(LookupError):
            ResidualHistory().final

    def test_asymptotic_rate_of_geometric_sequence(self):
        h = ResidualHistory([1.0 * 0.5**k for k in range(20)])
        assert h.asymptotic_rate() == pytest.approx(0.5, rel=1e-6)

    def test_rate_needs_two_points(self):
        assert ResidualHistory([1.0]).asymptotic_rate() is None

    def test_monotone(self):
        assert ResidualHistory([3.0, 2.0, 2.0, 1.0]).monotone()
        assert not ResidualHistory([1.0, 2.0]).monotone()

    def test_max_diff_helper(self):
        a, b = np.array([1.0, 5.0]), np.array([2.0, 3.0])
        assert max_diff(a, b) == 2.0


class TestBlocks:
    def test_partition_even(self):
        assert [list(r) for r in partition_planes(6, 3)] == [
            [0, 1], [2, 3], [4, 5]
        ]

    def test_partition_remainder_front_loaded(self):
        sizes = [len(r) for r in partition_planes(7, 3)]
        assert sizes == [3, 2, 2]

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            partition_planes(2, 3)  # α > n violates the paper's α ≤ n
        with pytest.raises(ValueError):
            partition_planes(2, 0)

    @given(st.integers(1, 64), st.integers(1, 16))
    @settings(max_examples=80, deadline=None)
    def test_partition_properties(self, n, a):
        if a > n:
            return
        ranges = partition_planes(n, a)
        covered = [p for r in ranges for p in r]
        assert covered == list(range(n))          # exact tiling
        sizes = [len(r) for r in ranges]
        assert max(sizes) - min(sizes) <= 1        # balanced

    def test_weighted_partition_proportional(self):
        ranges = weighted_partition(12, [1.0, 2.0, 1.0])
        sizes = [len(r) for r in ranges]
        assert sizes == [3, 6, 3]

    def test_weighted_partition_floors_at_one(self):
        ranges = weighted_partition(4, [100.0, 0.001, 100.0])
        assert all(len(r) >= 1 for r in ranges)
        assert sum(len(r) for r in ranges) == 4

    @given(
        st.integers(2, 48),
        st.lists(st.floats(0.1, 10.0), min_size=1, max_size=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_weighted_partition_properties(self, n, weights):
        if len(weights) > n:
            return
        ranges = weighted_partition(n, weights)
        covered = [p for r in ranges for p in r]
        assert covered == list(range(n))
        assert all(len(r) >= 1 for r in ranges)

    def test_assignment_queries(self):
        a = BlockAssignment.balanced(10, 3)
        assert a.owner(0) == 0 and a.owner(9) == 2
        assert a.first(1) == a.ranges[1].start
        assert a.last(2) == 9
        assert a.neighbors(0) == [1]
        assert a.neighbors(1) == [0, 2]
        assert a.neighbors(2) == [1]
        assert sum(a.load(k) for k in range(3)) == 10

    def test_assignment_validation(self):
        with pytest.raises(ValueError):
            BlockAssignment(4, (range(0, 2), range(3, 4)))  # gap
        with pytest.raises(IndexError):
            BlockAssignment.balanced(4, 2).owner(99)

    @pytest.mark.parametrize("weights, match", [
        ([], "at least one weight"),
        ([1.0, 0.0], "positive"),
        ([1.0] * 5, "more nodes than planes"),
    ], ids=["no-weights", "zero-weight", "too-many-nodes"])
    def test_weighted_partition_validation(self, weights, match):
        with pytest.raises(ValueError, match=match):
            weighted_partition(4, weights)

    def test_assignment_rejects_an_empty_range(self):
        with pytest.raises(ValueError, match="at least one plane"):
            BlockAssignment(3, (range(0, 3), range(3, 3)))

    def test_assignment_planes_and_description(self):
        a = BlockAssignment.weighted(6, [1.0, 2.0])
        assert a.planes(1) == range(2, 6)
        assert a.describe() == "node0:[0..1] | node1:[2..5]"
