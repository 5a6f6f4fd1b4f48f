"""Termination detectors as pure state machines."""

import pytest

from repro.solvers.termination import Action, ExactCoordinator, StreakCoordinator


class TestExactCoordinator:
    def test_stops_at_first_globally_converged_iteration(self):
        c = ExactCoordinator(n_peers=3, tol=1e-3)
        assert c.on_diff(0, 1, 1.0) == []
        assert c.on_diff(1, 1, 1.0) == []
        assert c.on_diff(2, 1, 1.0) == []
        c.on_diff(0, 2, 1e-4)
        c.on_diff(1, 2, 1e-4)
        actions = c.on_diff(2, 2, 1e-4)
        assert actions == [Action(None, ("STOP", 2))]
        assert c.stop_iteration == 2

    def test_one_straggler_blocks_stop(self):
        c = ExactCoordinator(n_peers=2, tol=1e-3)
        c.on_diff(0, 5, 1e-9)
        assert c.stop_iteration is None
        c.on_diff(1, 5, 1.0)  # other peer not converged at iter 5
        assert c.stop_iteration is None

    def test_out_of_order_reports(self):
        c = ExactCoordinator(n_peers=2, tol=1e-3)
        c.on_diff(1, 3, 1e-5)
        actions = c.on_diff(0, 3, 1e-5)
        assert c.stop_iteration == 3
        assert actions

    def test_reports_after_stop_ignored(self):
        c = ExactCoordinator(n_peers=1, tol=1e-3)
        c.on_diff(0, 1, 1e-9)
        assert c.on_diff(0, 2, 1e-9) == []

    def test_non_finite_diff_rejected(self):
        c = ExactCoordinator(n_peers=1, tol=1e-3)
        with pytest.raises(ValueError):
            c.on_diff(0, 1, float("inf"))

    def test_validation(self):
        with pytest.raises(ValueError):
            ExactCoordinator(0, 1e-3)
        with pytest.raises(ValueError):
            ExactCoordinator(1, 0.0)

    def test_pending_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="max_pending"):
            ExactCoordinator(2, 1e-3, max_pending=0)

    def test_memory_bounded(self):
        c = ExactCoordinator(n_peers=2, tol=1e-9)
        for it in range(1000):
            c.on_diff(0, it, 1.0)
            c.on_diff(1, it, 1.0)
        assert len(c._diffs) == 0  # complete above-tol iterations dropped

    def test_memory_bounded_with_silent_peer(self):
        """Regression: a peer that dies (or whose DIFFs are lost) used to
        leave every incomplete iteration's bookkeeping behind forever.
        Completing any newer iteration must prune all older ones too."""
        c = ExactCoordinator(n_peers=3, tol=1e-9)
        for it in range(1, 501):
            c.on_diff(0, it, 1.0)
            c.on_diff(1, it, 1.0)
            # Peer 2 goes silent except for one report in ten.
            if it % 10 == 0:
                c.on_diff(2, it, 1.0)
        # Every iteration ≤ the newest completed one (500) is pruned —
        # including the 450 incomplete ones peer 2 never reported.
        assert c._diffs == {}

    def test_memory_bounded_after_peer_dies_permanently(self):
        """A peer that stops reporting forever leaves every later
        iteration incomplete; the pending window must cap them."""
        c = ExactCoordinator(n_peers=2, tol=1e-9, max_pending=64)
        c.on_diff(1, 1, 1.0)  # peer 1's only report, then it dies
        for it in range(1, 2001):
            c.on_diff(0, it, 1.0)
            assert len(c._diffs) <= 64
        assert c.stop_iteration is None

    def test_straggler_for_pruned_iteration_dropped(self):
        """A late report for an iteration at or below the newest
        completed one must not resurrect pruned bookkeeping."""
        c = ExactCoordinator(n_peers=2, tol=1e-9)
        c.on_diff(0, 1, 1.0)  # iteration 1 incomplete (peer 1 silent)
        c.on_diff(0, 2, 1.0)
        c.on_diff(1, 2, 1.0)  # iteration 2 completes above tol
        assert c._diffs == {}
        assert c.on_diff(1, 1, 1e-12) == []  # straggler: dropped, no STOP
        assert c._diffs == {}
        assert c.stop_iteration is None


class TestStreakCoordinator:
    def test_verify_round_before_stop(self):
        c = StreakCoordinator(n_peers=2)
        assert c.on_conv(0, True) == []
        actions = c.on_conv(1, True)
        assert actions == [Action(None, ("VERIFY", 0))]
        assert c.phase == "verify"
        assert c.on_verify_ack(0, 0, True) == []
        actions = c.on_verify_ack(1, 0, True)
        assert actions == [Action(None, ("STOP", 0))]
        assert c.stopped

    def test_failed_verification_resumes_collection(self):
        c = StreakCoordinator(n_peers=2)
        c.on_conv(0, True)
        c.on_conv(1, True)
        actions = c.on_verify_ack(0, 0, False)
        assert not c.stopped
        assert c.epoch == 1
        assert c.stats_failed_verifications == 1
        # The refusing peer was removed; re-verify only fires once it
        # (re-)reports convergence.
        assert actions == []
        actions = c.on_conv(0, True)
        assert actions == [Action(None, ("VERIFY", 1))]

    def test_regression_during_verify_aborts(self):
        c = StreakCoordinator(n_peers=2)
        c.on_conv(0, True)
        c.on_conv(1, True)
        c.on_conv(1, False)  # regressed mid-verification
        assert c.phase == "collect"
        assert c.epoch == 1

    def test_stale_epoch_acks_ignored(self):
        c = StreakCoordinator(n_peers=2)
        c.on_conv(0, True)
        c.on_conv(1, True)
        c.on_verify_ack(0, 0, False)  # epoch now 1
        assert c.on_verify_ack(1, 0, True) == []  # stale epoch

    def test_no_spin_on_self_refusal(self):
        """The regression that once caused unbounded recursion: an
        immediately-refused verify must not re-verify immediately."""
        c = StreakCoordinator(n_peers=1)
        c.on_conv(0, True)
        actions = c.on_verify_ack(0, 0, False)
        assert actions == []
        assert c.phase == "collect"

    def test_single_peer_flow(self):
        c = StreakCoordinator(n_peers=1)
        assert c.on_conv(0, True) == [Action(None, ("VERIFY", 0))]
        assert c.on_verify_ack(0, 0, True) == [Action(None, ("STOP", 0))]

    def test_events_after_stop_ignored(self):
        c = StreakCoordinator(n_peers=1)
        c.on_conv(0, True)
        c.on_verify_ack(0, 0, True)
        assert c.on_conv(0, False) == []
        assert c.on_verify_ack(0, 0, True) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            StreakCoordinator(0)
