"""Window-dynamics tests for the four congestion controllers."""

import pytest

from repro.cactus.composite import CompositeProtocol
from repro.p2psap.microprotocols.congestion import (
    CWND_KEY,
    HTCPCongestion,
    NewRenoCongestion,
    SCPCongestion,
    TahoeCongestion,
    make_congestion,
)
from repro.simnet.kernel import Simulator


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("newreno", NewRenoCongestion),
            ("htcp", HTCPCongestion),
            ("tahoe", TahoeCongestion),
            ("scp", SCPCongestion),
        ],
    )
    def test_make(self, name, cls):
        assert isinstance(make_congestion(name), cls)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_congestion("cubic")


class TestSlowStart:
    @pytest.mark.parametrize("cls", [NewRenoCongestion, TahoeCongestion,
                                     HTCPCongestion, SCPCongestion])
    def test_doubles_per_ack_below_ssthresh(self, cls):
        cc = cls()
        cc.ssthresh = 64.0
        start = cc.cwnd
        for _ in range(10):
            cc.on_ack(rtt=0.01)
        assert cc.cwnd == start + 10  # +1 per ack

    def test_congestion_avoidance_linear(self):
        cc = NewRenoCongestion()
        cc.ssthresh = 2.0  # immediately in avoidance
        cc.cwnd = 10.0
        cc.on_ack(rtt=0.01)
        assert cc.cwnd == pytest.approx(10.0 + 1.0 / 10.0)


class TestTahoe:
    def test_timeout_collapses_to_one(self):
        cc = TahoeCongestion()
        cc.cwnd, cc.ssthresh = 32.0, 64.0
        cc.on_timeout()
        assert cc.cwnd == 1.0
        assert cc.ssthresh == 16.0

    def test_triple_dupack_also_collapses(self):
        """Tahoe has fast retransmit but no fast recovery."""
        cc = TahoeCongestion()
        cc.cwnd, cc.ssthresh = 20.0, 64.0
        cc.on_dupack(3)
        assert cc.cwnd == 1.0
        assert cc.ssthresh == 10.0

    def test_two_dupacks_do_nothing(self):
        cc = TahoeCongestion()
        cc.cwnd = 20.0
        cc.on_dupack(2)
        assert cc.cwnd == 20.0


class TestNewReno:
    def test_fast_recovery_halves_not_collapses(self):
        cc = NewRenoCongestion()
        cc.cwnd, cc.ssthresh = 20.0, 64.0
        cc.on_dupack(3)
        assert cc.in_fast_recovery
        assert cc.ssthresh == 10.0
        assert cc.cwnd == 13.0  # ssthresh + 3 (window inflation)

    def test_window_inflates_per_extra_dupack(self):
        cc = NewRenoCongestion()
        cc.cwnd = 20.0
        cc.on_dupack(3)
        inflated = cc.cwnd
        cc.on_dupack(4)
        assert cc.cwnd == inflated + 1.0

    def test_full_ack_deflates_to_ssthresh(self):
        cc = NewRenoCongestion()
        cc.cwnd = 20.0
        cc.on_dupack(3)
        cc.on_ack(rtt=0.01)
        assert not cc.in_fast_recovery
        assert cc.cwnd == cc.ssthresh == 10.0

    def test_partial_ack_stays_in_recovery(self):
        """RFC 2582: partial acks retransmit and deflate without leaving
        recovery."""
        cc = NewRenoCongestion()
        cc.cwnd = 20.0
        cc.on_dupack(3)
        cc.on_ack(rtt=0.01, partial=True)
        assert cc.in_fast_recovery
        cc.on_ack(rtt=0.01)
        assert not cc.in_fast_recovery

    def test_timeout_exits_recovery_and_collapses(self):
        cc = NewRenoCongestion()
        cc.cwnd = 20.0
        cc.on_dupack(3)
        cc.on_timeout()
        assert not cc.in_fast_recovery
        assert cc.cwnd == 1.0


class TestHTCP:
    def test_alpha_is_one_in_low_speed_regime(self):
        cc = HTCPCongestion()
        assert cc.alpha(0.5) == 1.0
        assert cc.alpha(1.0) == 1.0

    def test_alpha_grows_polynomially(self):
        cc = HTCPCongestion()
        # α(Δ) = 1 + 10(Δ−1) + ((Δ−1)/2)²
        assert cc.alpha(2.0) == pytest.approx(1 + 10 + 0.25)
        assert cc.alpha(3.0) == pytest.approx(1 + 20 + 1.0)

    def test_growth_faster_than_reno_after_long_epoch(self):
        """On a clean long-RTT path, H-TCP must outgrow New-Reno — the
        reason Table I assigns it to the inter-cluster cell."""
        sim = Simulator()
        comp = CompositeProtocol(sim, "t")
        htcp = comp.add_micro(HTCPCongestion())
        reno = NewRenoCongestion()
        for cc in (htcp, reno):
            cc.ssthresh = 1.0  # force congestion avoidance
            cc.cwnd = 10.0
        sim.timeout(10.0)
        sim.run()  # advance virtual time so Δ = 10 s since epoch start
        htcp.on_ack(rtt=0.1)
        reno.on_ack(rtt=0.1)
        assert htcp.cwnd - 10.0 > 5 * (reno.cwnd - 10.0)

    def test_beta_from_rtt_ratio(self):
        cc = HTCPCongestion()
        cc.ssthresh = 1.0
        cc.cwnd = 100.0
        cc.on_ack(rtt=0.100)
        cc.on_ack(rtt=0.125)
        cc.on_timeout()
        # β = rtt_min/rtt_max = 0.8, clamped into [0.5, 0.8]
        assert cc.beta == pytest.approx(0.8)
        # cwnd ≈ 0.8 × (100 + two small CA increments)
        assert cc.cwnd == pytest.approx(80.0, rel=1e-2)

    def test_beta_clamped_low(self):
        cc = HTCPCongestion()
        cc.ssthresh = 1.0
        cc.cwnd = 100.0
        cc.on_ack(rtt=0.010)
        cc.on_ack(rtt=0.100)  # ratio 0.1 -> clamp to 0.5
        cc.on_timeout()
        assert cc.beta == pytest.approx(0.5)

    def test_triple_dupack_backs_off_by_beta_without_timeout(self):
        cc = HTCPCongestion()
        cc.ssthresh = 1.0
        cc.cwnd = 100.0
        cc.on_ack(rtt=0.100)
        cc.on_ack(rtt=0.125)
        window, rto = cc.cwnd, cc.rto
        cc.on_dupack(2)
        assert cc.cwnd == window
        cc.on_dupack(3)
        assert cc.cwnd == pytest.approx(0.8 * window)
        assert cc.stats_fast_retransmits == 1
        assert cc.stats_timeouts == 0
        assert cc.rto == rto  # only a timeout backs the RTO off

    def test_beta_defaults_low_without_rtt_samples(self):
        cc = HTCPCongestion()
        cc.cwnd = 40.0
        cc.on_timeout()
        assert cc.beta == HTCPCongestion.BETA_MIN
        assert cc.cwnd == pytest.approx(20.0)


class TestSCP:
    def test_backs_off_before_loss_when_queue_builds(self):
        """Vegas-like proactivity: rising RTT shrinks the window without
        any loss event."""
        cc = SCPCongestion()
        cc.ssthresh = 1.0
        cc.cwnd = 50.0
        cc.on_ack(rtt=0.010)  # base RTT
        w0 = cc.cwnd
        for _ in range(20):
            cc.on_ack(rtt=0.050)  # heavy queueing
        assert cc.cwnd < w0

    def test_holds_at_equilibrium(self):
        cc = SCPCongestion()
        cc.ssthresh = 1.0
        cc.cwnd = 10.0
        cc.on_ack(rtt=0.0100)
        # Small backlog between alpha and beta thresholds: hold.
        cc.srtt = None
        cc.on_ack(rtt=0.0102)
        within = cc.cwnd
        cc.on_ack(rtt=0.0102)
        assert cc.cwnd == pytest.approx(within, rel=0.05)

    def test_timeout_collapses(self):
        cc = SCPCongestion()
        cc.cwnd = 30.0
        cc.on_timeout()
        assert cc.cwnd == 1.0

    def test_triple_dupack_halves_without_collapsing(self):
        cc = SCPCongestion()
        cc.cwnd = 30.0
        cc.on_dupack(2)
        assert cc.cwnd == 30.0
        cc.on_dupack(3)
        assert cc.cwnd == cc.ssthresh == 15.0
        assert cc.stats_fast_retransmits == 1

    def test_avoidance_without_rtt_sample_is_linear(self):
        cc = SCPCongestion()
        cc.ssthresh = 1.0
        cc.cwnd = 10.0
        cc.on_ack()
        assert cc.cwnd == pytest.approx(10.0 + 1.0 / 10.0)


class TestSharedState:
    def test_publishes_cwnd_and_rto_to_composite(self):
        sim = Simulator()
        comp = CompositeProtocol(sim, "t")
        cc = comp.add_micro(NewRenoCongestion())
        comp.bus.raise_event("AckReceived", 0, 0.05)
        assert comp.shared[CWND_KEY] == cc.cwnd
        assert comp.shared["rto"] == cc.rto

    def test_removal_clears_shared_state(self):
        sim = Simulator()
        comp = CompositeProtocol(sim, "t")
        comp.add_micro(NewRenoCongestion())
        comp.remove_micro("cc-newreno")
        assert CWND_KEY not in comp.shared
        assert "rto" not in comp.shared

    def test_rtt_estimator_rfc6298(self):
        cc = NewRenoCongestion()
        cc.observe_rtt(0.1)
        assert cc.srtt == pytest.approx(0.1)
        assert cc.rto == pytest.approx(max(0.2, 0.1 + 4 * 0.05))
        cc.observe_rtt(0.2)
        assert 0.1 < cc.srtt < 0.2

    def test_ack_events_pump_try_send(self):
        sim = Simulator()
        comp = CompositeProtocol(sim, "t")
        comp.add_micro(NewRenoCongestion())
        pumped = []
        comp.bus.bind("TrySend", lambda: pumped.append(1))
        comp.bus.raise_event("AckReceived", 0, 0.01)
        assert pumped

    def test_dupack_events_reach_the_controller(self):
        sim = Simulator()
        comp = CompositeProtocol(sim, "t")
        cc = comp.add_micro(TahoeCongestion())
        cc.cwnd = 20.0
        pumped = []
        comp.bus.bind("TrySend", lambda: pumped.append(1))
        comp.bus.raise_event("DupAck", 7, 3)
        assert cc.cwnd == 1.0
        assert comp.shared[CWND_KEY] == 1.0
        assert pumped
