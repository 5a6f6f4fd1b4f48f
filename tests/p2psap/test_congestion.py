"""Window-dynamics tests for the two congestion controllers."""

import pytest

from repro.cactus.composite import CompositeProtocol
from repro.cactus.messages import Message
from repro.p2psap.microprotocols.congestion import (
    CWND_KEY,
    SSTHRESH_KEY,
    HTCPCongestion,
    NewRenoCongestion,
    make_congestion,
)
from repro.p2psap.context import ChannelConfig, CommMode
from repro.p2psap.data_channel import DataChannel
from repro.p2psap.microprotocols.reliability import Reliability
from repro.simnet.kernel import Simulator
from repro.simnet.network import Netem, Network


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("newreno", NewRenoCongestion),
            ("htcp", HTCPCongestion),
        ],
    )
    def test_make(self, name, cls):
        assert isinstance(make_congestion(name), cls)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_congestion("cubic")


class TestSlowStart:
    @pytest.mark.parametrize("cls", [NewRenoCongestion, HTCPCongestion])
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


class TestNewReno:
    def test_timeout_halves_ssthresh_and_restarts_slow_start(self):
        cc = NewRenoCongestion()
        cc.cwnd, cc.ssthresh = 32.0, 64.0
        cc.on_timeout()
        assert cc.cwnd == 1.0
        assert cc.ssthresh == 16.0
        cc.on_ack(rtt=0.01)
        assert cc.cwnd == 2.0  # below ssthresh again: +1 per ack

    def test_ssthresh_never_below_two_segments(self):
        cc = NewRenoCongestion()
        cc.cwnd = 5.0
        cc.on_timeout()
        assert cc.ssthresh == 2.5
        assert cc.cwnd == 1.0
        cc.on_timeout()
        assert cc.ssthresh == 2.0  # half of one segment, floored at two

    def test_avoidance_without_rtt_sample_is_linear(self):
        cc = NewRenoCongestion()
        cc.ssthresh = 1.0
        cc.cwnd = 10.0
        cc.on_ack()
        assert cc.cwnd == pytest.approx(10.0 + 1.0 / 10.0)
        assert cc.srtt is None
        assert cc.rto == 1.0  # no sample, no estimate


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

    def test_beta_defaults_low_without_rtt_samples(self):
        cc = HTCPCongestion()
        cc.cwnd = 40.0
        cc.on_timeout()
        assert cc.beta == HTCPCongestion.BETA_MIN
        assert cc.cwnd == pytest.approx(20.0)

    def test_rtt_extremes_track_the_samples(self):
        cc = HTCPCongestion()
        for rtt in (0.12, 0.10, 0.15, 0.11):
            cc.on_ack(rtt=rtt)
        assert (cc.rtt_min, cc.rtt_max) == (0.10, 0.15)
        cc.on_ack()  # an ack without a sample leaves them alone
        assert (cc.rtt_min, cc.rtt_max) == (0.10, 0.15)

    def test_without_a_composite_growth_is_standard_tcp(self):
        """Unstacked, the controller has no clock: Δ stays 0, α stays 1,
        and avoidance grows like New-Reno."""
        cc = HTCPCongestion()
        cc.ssthresh = 1.0
        cc.cwnd = 10.0
        cc.on_ack(rtt=0.1)
        assert cc.elapsed_since_congestion() == 0.0
        assert cc.cwnd == pytest.approx(10.0 + 1.0 / 10.0)

    def test_congestion_event_restarts_the_epoch(self):
        """Δ counts from the last congestion event, so right after a loss
        H-TCP grows like standard TCP again, however long the run."""
        sim = Simulator()
        comp = CompositeProtocol(sim, "t")
        cc = comp.add_micro(HTCPCongestion())
        cc.ssthresh = 1.0
        cc.cwnd = 100.0
        sim.timeout(10.0)
        sim.run()
        assert cc.elapsed_since_congestion() == 10.0
        cc.on_timeout()
        assert cc.elapsed_since_congestion() == 0.0
        window = cc.cwnd
        cc.on_ack()
        assert cc.cwnd == pytest.approx(window + 1.0 / window)


@pytest.mark.parametrize("cls", [NewRenoCongestion, HTCPCongestion])
class TestEveryController:
    def test_timeout_backs_the_rto_off_up_to_a_minute(self, cls):
        cc = cls()
        rtos = []
        for _ in range(8):
            cc.on_timeout()
            rtos.append(cc.rto)
        assert rtos == [2.0, 4.0, 8.0, 16.0, 32.0, 60.0, 60.0, 60.0]
        assert cc.stats_timeouts == 8

    def test_counts_acks_and_timeouts(self, cls):
        cc = cls()
        cc.cwnd = 40.0
        for _ in range(5):
            cc.on_ack(rtt=0.01)
        cc.on_timeout()
        cc.on_ack(rtt=0.01)
        cc.on_timeout()
        assert cc.stats_acks == 6
        assert cc.stats_timeouts == 2

    def test_segment_timeout_events_reach_the_controller(self, cls):
        sim = Simulator()
        comp = CompositeProtocol(sim, "t")
        cc = comp.add_micro(cls())
        cc.cwnd = 40.0
        pumped = []
        comp.bus.bind("TrySend", lambda: pumped.append(1))
        comp.bus.raise_event("SegmentTimeout", 3)
        assert cc.stats_timeouts == 1
        assert cc.cwnd < 40.0
        assert comp.shared[CWND_KEY] == cc.cwnd
        assert comp.shared[SSTHRESH_KEY] == cc.ssthresh
        assert comp.shared["rto"] == cc.rto == 2.0
        assert pumped


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

    def test_ssthresh_published_after_a_timeout(self):
        sim = Simulator()
        comp = CompositeProtocol(sim, "t")
        cc = comp.add_micro(NewRenoCongestion())
        assert comp.shared[SSTHRESH_KEY] == cc.ssthresh
        cc.cwnd = 20.0
        comp.bus.raise_event("SegmentTimeout", 1)
        assert comp.shared[SSTHRESH_KEY] == 10.0

    def test_non_positive_rtt_sample_is_ignored(self):
        cc = NewRenoCongestion()
        cc.observe_rtt(0.0)
        cc.observe_rtt(-0.5)
        assert cc.srtt is None and cc.rttvar is None
        assert cc.rto == 1.0

    def test_rto_floor_is_200_ms(self):
        cc = NewRenoCongestion()
        for _ in range(50):
            cc.observe_rtt(0.001)
        assert cc.srtt == pytest.approx(0.001)
        assert cc.rto == 0.2

    def test_rtt_estimator_rfc6298(self):
        cc = NewRenoCongestion()
        cc.observe_rtt(0.1)
        assert cc.srtt == pytest.approx(0.1)
        assert cc.rto == pytest.approx(max(0.2, 0.1 + 4 * 0.05))
        cc.observe_rtt(0.2)
        assert 0.1 < cc.srtt < 0.2

    def test_an_ack_pumps_try_send_once_with_the_new_window(self):
        """Reliability pumps after ``AckReceived``; the controller does
        not pump on an ACK as well."""
        sim = Simulator()
        comp = CompositeProtocol(sim, "t")
        cc = comp.add_micro(NewRenoCongestion())
        comp.add_micro(Reliability())
        msg = Message("x")
        msg.meta["seq"] = 0
        comp.bus.raise_event("TxSegment", msg)
        pumped = []
        comp.bus.bind("TrySend", lambda: pumped.append(
            (comp.shared[CWND_KEY], set(comp.shared["in_flight"]))))
        comp.bus.raise_event("AckReceived", 0, 0.01)
        assert pumped == []  # the controller does not pump on an ACK
        comp.bus.raise_event("RxAck", 0, None)
        assert pumped == [(cc.cwnd, set())] and cc.cwnd > cc.INITIAL_WINDOW


class LossyStream:
    """``n`` messages streamed one way over a reliable asynchronous
    channel on a link losing ``loss`` of its packets each way, with the
    sender's controller state recorded around every timeout."""

    def __init__(self, congestion, n=200, loss=0.3):
        sim = self.sim = Simulator()
        net = Network(sim, intra_netem=Netem(delay=0.01, loss=loss))
        a, b = net.add_node("a"), net.add_node("b")
        config = ChannelConfig(mode=CommMode.ASYNCHRONOUS, reliable=True,
                               congestion=congestion)
        cha = DataChannel(sim, net, a, "b", 9, config)
        chb = DataChannel(sim, net, b, "a", 9, config)
        cc = self.cc = cha.transport.micro(f"cc-{congestion}")
        self.rel = cha.transport.micro("reliability")
        shared = cha.transport.shared
        #: (controller state before, after) per SegmentTimeout, in order.
        self.timeouts = []
        #: (seq, time, RTO its deadline was set with) per transmission.
        self.sends = []

        def state():
            return {"cwnd": cc.cwnd, "ssthresh": cc.ssthresh, "rto": cc.rto,
                    "published": (shared["cwnd"], shared["rto"]),
                    "epoch_age": getattr(cc, "elapsed_since_congestion",
                                         lambda: None)(),
                    "beta": getattr(cc, "beta", None)}

        bus = cha.transport.bus
        bus.bind("SegmentTimeout", lambda seq: self.timeouts.append([state()]),
                 order=-1)
        bus.bind("SegmentTimeout", lambda seq: self.timeouts[-1].append(state()),
                 order=1)
        bus.bind("TxSegment", lambda msg: self.sends.append(
            (msg.meta["seq"], sim.now, shared["rto"])), order=20)

        def sender():
            for i in range(n):
                yield cha.user_send(i)

        sim.spawn(sender())
        sim.run(until=3600)
        self.got = []
        while True:
            ok, payload = chb.user_receive_nowait()
            if not ok:
                break
            self.got.append(payload)
        self.n = n


@pytest.fixture(scope="module")
def newreno_stream():
    return LossyStream("newreno")


@pytest.fixture(scope="module")
def htcp_stream():
    return LossyStream("htcp")


@pytest.fixture(params=["newreno", "htcp"])
def lossy(request):
    return request.getfixturevalue(f"{request.param}_stream")


class TestOnALossyStream:
    """The controllers as the stack runs them: losses are seen by the
    retransmission timeout alone."""

    def test_the_stream_arrives_whole_and_in_order(self, lossy):
        assert lossy.got == list(range(lossy.n))
        assert lossy.rel.stats_abandoned == 0
        # One SegmentTimeout per retransmission, and there were some.
        assert lossy.cc.stats_timeouts == len(lossy.timeouts) \
            == lossy.rel.stats_retransmits > 10

    def test_each_timeout_doubles_the_rto_up_to_a_minute(self, lossy):
        for before, after in lossy.timeouts:
            assert after["rto"] == min(2.0 * before["rto"], 60.0)

    def test_each_timeout_publishes_the_new_window_and_rto(self, lossy):
        for _, after in lossy.timeouts:
            assert after["published"] == (after["cwnd"], after["rto"])

    def test_a_retransmission_waits_the_rto_it_was_sent_with(self, lossy):
        last = {}
        waits = 0
        for seq, at, rto in lossy.sends:
            if seq in last:
                sent_at, sent_rto = last[seq]
                assert at == pytest.approx(sent_at + sent_rto, abs=1e-12)
                waits += 1
            last[seq] = (at, rto)
        assert waits == lossy.rel.stats_retransmits

    def test_the_window_grows_back_after_the_last_timeout(self, lossy):
        assert lossy.cc.cwnd > lossy.timeouts[-1][1]["cwnd"]
        assert lossy.cc.stats_acks >= lossy.n

    def test_newreno_collapses_to_one_segment(self, newreno_stream):
        for before, after in newreno_stream.timeouts:
            assert after["cwnd"] == NewRenoCongestion.MIN_WINDOW
            assert after["ssthresh"] == max(before["cwnd"] / 2.0, 2.0)

    def test_htcp_backs_off_by_beta_and_restarts_its_epoch(self, htcp_stream):
        timeouts = htcp_stream.timeouts
        for before, after in timeouts:
            beta = after["beta"]
            assert HTCPCongestion.BETA_MIN <= beta <= HTCPCongestion.BETA_MAX
            assert after["cwnd"] == max(before["cwnd"] * beta, 1.0)
            assert after["ssthresh"] == max(before["cwnd"] * beta, 2.0)
            assert after["epoch_age"] == 0.0
        assert any(before["epoch_age"] > 0.0 for before, _ in timeouts)
