"""The scenario invariants, checked directly.

The scenario engine runs these checks after every faulted solve; here
each one is driven on a recorded fault-free solve (where it must stay
silent) and on a planted defect (where it must speak), so a check that
quietly stopped firing would fail here rather than let a scenario pass.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.core import P2PDC
from repro.parallel.trace import record_schedule
from repro.scenarios.invariants import (
    RESIDUAL_MARGIN,
    check_all,
    check_error_envelope,
    check_no_false_stop,
    check_tolerance_match,
    check_verified_stop,
    reference_solution,
)
from repro.simnet import Simulator, nicta_testbed
from repro.solvers import ObstacleApplication

N = 8
TOL = 1e-4


@pytest.fixture(scope="module")
def recorded():
    """One asynchronous 3-peer membrane solve and its schedule trace."""
    sim = Simulator()
    env = P2PDC(sim, nicta_testbed(sim, 3))
    env.register_everywhere(ObstacleApplication())
    with record_schedule() as rec:
        run = env.run_to_completion(
            "obstacle", params={"n": N, "tol": TOL}, n_peers=3,
            scheme="asynchronous", timeout=1e6)
    return run.output, rec.trace


def unconverged(report, ranks):
    """``report`` with ``ranks`` marked as never having stopped."""
    per_peer = [dataclasses.replace(p, converged_at=None)
                if p.rank in ranks else p for p in report.per_peer]
    return dataclasses.replace(report, per_peer=per_peer)


class TestNoFalseStop:
    def test_reference_solution_is_quiet(self):
        violations = []
        diff = check_no_false_stop(reference_solution("membrane", N),
                                   "membrane", N, TOL, violations)
        assert violations == []
        assert diff < 1e-8

    def test_verified_solve_is_quiet(self, recorded):
        report, _ = recorded
        violations = []
        check_no_false_stop(report.u, "membrane", N, TOL, violations)
        assert violations == []

    def test_unconverged_iterate_is_flagged(self):
        violations = []
        diff = check_no_false_stop(np.zeros((N, N, N)), "membrane", N,
                                   TOL, violations)
        assert diff > 5 * TOL
        assert len(violations) == 1
        assert violations[0].startswith("false STOP")


class TestToleranceMatch:
    def test_within_margin_passes(self):
        violations = []
        check_tolerance_match(0.99 * RESIDUAL_MARGIN * 1e-5, 1e-5,
                              violations)
        assert violations == []

    def test_degraded_residual_is_flagged(self):
        violations = []
        check_tolerance_match(1.01 * RESIDUAL_MARGIN * 1e-5, 1e-5,
                              violations)
        assert len(violations) == 1
        assert violations[0].startswith("tolerance mismatch")

    @pytest.mark.parametrize("residual", [math.nan, math.inf])
    def test_non_finite_residual_is_flagged(self, residual):
        violations = []
        check_tolerance_match(residual, 1e-5, violations)
        assert len(violations) == 1

    def test_zero_baseline_still_admits_an_exact_answer(self):
        violations = []
        check_tolerance_match(0.0, 0.0, violations)
        assert violations == []
        check_tolerance_match(1e-12, 0.0, violations)
        assert len(violations) == 1


class TestVerifiedStop:
    def test_every_peer_stopped(self, recorded):
        report, _ = recorded
        assert all(p.converged_at is not None for p in report.per_peer)
        violations = []
        check_verified_stop(report, violations)
        assert violations == []

    def test_names_the_ranks_that_did_not_stop(self, recorded):
        report, _ = recorded
        violations = []
        check_verified_stop(unconverged(report, {0, 2}), violations)
        assert violations == [
            "final epoch ended without a verified STOP on rank(s) [0, 2]"
        ]


class TestErrorEnvelope:
    def test_holds_on_a_recorded_schedule(self, recorded):
        _, trace = recorded
        violations = []
        checked = check_error_envelope(trace, violations)
        assert checked == trace.n_sweeps > 0
        assert violations == []

    def test_growth_is_flagged_at_most_three_times(self, recorded):
        """A negative slack makes every sweep a growth; the report is
        capped so a broken run does not flood it."""
        _, trace = recorded
        violations = []
        checked = check_error_envelope(trace, violations, label="epoch 7: ",
                                       eps=-1.0)
        assert checked > 3
        assert len(violations) == 3
        assert all(v.startswith("epoch 7: envelope grew") for v in violations)


class TestCheckAll:
    def test_clean_solve_has_no_violations(self, recorded):
        report, trace = recorded
        violations = []
        check_all([trace], report, TOL, report.residual, violations)
        assert violations == []

    def test_without_a_final_report_only_envelopes_are_checked(self,
                                                               recorded):
        _, trace = recorded
        violations = []
        check_all([trace, trace], None, TOL, math.nan, violations)
        assert violations == []

    def test_reports_every_failing_invariant(self, recorded):
        report, trace = recorded
        bad = dataclasses.replace(unconverged(report, {1}),
                                  residual=report.residual * 100)
        violations = []
        check_all([trace], bad, TOL, report.residual, violations)
        assert len(violations) == 2
        assert "rank(s) [1]" in violations[0]
        assert violations[1].startswith("tolerance mismatch")
