"""Unit tests for buffer management, reliability (in-sequence delivery
included) and modes."""

import pytest

from repro.cactus.composite import CompositeProtocol
from repro.cactus.messages import Message
from repro.p2psap.context import CommMode
from repro.p2psap.microprotocols.buffers import BufferManagement
from repro.p2psap.microprotocols.modes import (
    AsynchronousMode,
    SynchronousMode,
    make_mode,
)
from repro.p2psap.microprotocols.reliability import Reliability
from repro.simnet.kernel import Simulator


@pytest.fixture
def comp():
    return CompositeProtocol(Simulator(), "transport")


def user_send(comp, payload, completion=None):
    msg = Message(payload)
    if completion is not None:
        msg.meta["completion"] = completion
    comp.bus.raise_event("UserSend", msg)
    return msg


class TestBufferManagement:
    def test_assigns_fifo_sequence_numbers(self, comp):
        comp.add_micro(BufferManagement())
        sent = []
        comp.bus.bind("TxSegment", lambda m: sent.append(m.meta["seq"]))
        for i in range(3):
            user_send(comp, i)
        assert sent == [0, 1, 2]

    def test_window_limits_in_flight(self, comp):
        comp.add_micro(BufferManagement())
        comp.shared["cwnd"] = 2.0
        comp.shared["in_flight"] = set()
        sent = []

        def tx(m):
            sent.append(m.meta["seq"])
            comp.shared["in_flight"].add(m.meta["seq"])

        comp.bus.bind("TxSegment", tx)
        for i in range(5):
            user_send(comp, i)
        assert sent == [0, 1]  # window full
        comp.shared["in_flight"].discard(0)
        comp.bus.raise_event("TrySend")
        assert sent == [0, 1, 2]

    def test_no_window_means_unlimited(self, comp):
        comp.add_micro(BufferManagement())
        sent = []
        comp.bus.bind("TxSegment", lambda m: sent.append(m))
        for i in range(100):
            user_send(comp, i)
        assert len(sent) == 100

    def test_rx_overflow_drops_oldest(self, comp):
        bm = comp.add_micro(BufferManagement(rx_capacity=3))
        for i in range(5):
            comp.bus.raise_event("RxDeliver", Message(i), None)
        ok, msg = bm.take_nowait()
        assert ok and msg.payload == 2  # 0 and 1 were dropped
        assert bm.stats_rx_dropped == 2

    def test_take_latest_discards_stale(self, comp):
        bm = comp.add_micro(BufferManagement())
        for i in range(4):
            comp.bus.raise_event("RxDeliver", Message(i), None)
        ok, msg = bm.take_latest_nowait()
        assert ok and msg.payload == 3
        assert bm.pending_rx() == 0

    def test_rx_waiter_woken_in_order(self, comp):
        sim = comp.sim
        comp.add_micro(BufferManagement())
        got = []
        w = sim.event()
        comp.shared["rx_waiters"].append(w)
        w.callbacks.append(lambda ev: got.append(ev.value.payload))
        comp.bus.raise_event("RxDeliver", Message("x"), None)
        sim.run()
        assert got == ["x"]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BufferManagement(rx_capacity=0)


class TestReliability:
    def make(self, comp):
        rel = comp.add_micro(Reliability())
        comp.shared["rto"] = 0.5
        outbox = []
        comp.bus.bind("SendControl", lambda kind, f: outbox.append((kind, f)))
        resent = []
        comp.bus.bind("TxSegment", lambda m: resent.append(m), order=99)
        return rel, outbox, resent

    def test_acks_every_data_segment(self, comp):
        rel, outbox, _ = self.make(comp)
        msg = Message("payload")
        comp.bus.raise_event("RxData", msg, {"seq": 0, "ts": 1.0})
        assert outbox == [("ACK", {"seq": 0, "echo_ts": 1.0})]

    def test_duplicates_are_acked_but_not_redelivered(self, comp):
        rel, outbox, _ = self.make(comp)
        delivered = []
        comp.bus.bind("RxDeliver", lambda m, f: delivered.append(m))
        for _ in range(3):
            comp.bus.raise_event("RxData", Message("p"), {"seq": 0, "ts": None})
        assert len(outbox) == 3       # every copy acked
        assert len(delivered) == 1    # delivered once
        assert rel.stats_dup_rx == 2

    def test_retransmits_until_acked(self, comp):
        sim = comp.sim
        rel, _, resent = self.make(comp)
        msg = Message("data")
        msg.meta["seq"] = 0
        comp.bus.raise_event("TxSegment", msg)
        sim.run(until=2.6)  # RTO 0.5 with timer churn
        assert rel.stats_retransmits >= 3
        assert rel.unacked_count == 1

    def test_ack_stops_retransmission_and_reports_rtt(self, comp):
        sim = comp.sim
        rel, _, resent = self.make(comp)
        acks = []
        comp.bus.bind("AckReceived", lambda seq, rtt: acks.append((seq, rtt)))
        msg = Message("data")
        msg.meta["seq"] = 0
        comp.bus.raise_event("TxSegment", msg)
        t_sent = msg.meta["tx_time"]

        def acker():
            yield sim.timeout(0.1)
            comp.bus.raise_event("RxAck", 0, t_sent)

        sim.spawn(acker())
        sim.run(until=5.0)
        assert rel.unacked_count == 0
        assert rel.stats_retransmits == 0
        assert acks == [(0, pytest.approx(0.1))]

    def test_karns_algorithm_no_rtt_from_retransmitted(self, comp):
        sim = comp.sim
        rel, _, _ = self.make(comp)
        acks = []
        comp.bus.bind("AckReceived", lambda seq, rtt: acks.append((seq, rtt)))
        msg = Message("data")
        msg.meta["seq"] = 0
        comp.bus.raise_event("TxSegment", msg)

        def acker():
            yield sim.timeout(0.8)  # after one retransmission
            comp.bus.raise_event("RxAck", 0, msg.meta["tx_time"])

        sim.spawn(acker())
        sim.run(until=5.0)
        assert acks[0][1] is None  # RTT sample suppressed

    def test_abandons_after_max_retransmits(self, comp):
        sim = comp.sim
        rel, _, _ = self.make(comp)
        rel.MAX_RETRANSMITS = 3
        abandoned = []
        comp.bus.bind("SegmentAbandoned", lambda seq: abandoned.append(seq))
        msg = Message("data")
        msg.meta["seq"] = 0
        comp.bus.raise_event("TxSegment", msg)
        sim.run(until=60.0)
        assert abandoned == [0]
        assert rel.unacked_count == 0

    def test_stale_ack_ignored(self, comp):
        rel, _, _ = self.make(comp)
        comp.bus.raise_event("RxAck", 99, None)  # never sent
        assert rel.unacked_count == 0

    def test_timeout_raises_congestion_event(self, comp):
        sim = comp.sim
        rel, _, _ = self.make(comp)
        timeouts = []
        comp.bus.bind("SegmentTimeout", lambda seq: timeouts.append(seq))
        msg = Message("d")
        msg.meta["seq"] = 0
        comp.bus.raise_event("TxSegment", msg)
        sim.run(until=1.2)
        assert 0 in timeouts


class TestInSequenceDelivery:
    """Reliability releases fresh segments to ``RxDeliver`` in sequence."""

    def make(self, comp):
        rel = comp.add_micro(Reliability())
        out = []
        comp.bus.bind("RxDeliver", lambda m, f: out.append(f["seq"]))
        return rel, out

    def deliver(self, comp, seq):
        comp.bus.raise_event("RxData", Message(seq), {"seq": seq, "ts": None})

    def test_in_order_passthrough(self, comp):
        rel, out = self.make(comp)
        for s in (0, 1, 2):
            self.deliver(comp, s)
            assert out[-1] == s  # released on arrival, nothing held
        assert out == [0, 1, 2] and not rel._rx_above

    def test_gap_is_held_then_released(self, comp):
        rel, out = self.make(comp)
        self.deliver(comp, 2)
        self.deliver(comp, 1)
        assert out == [] and sorted(rel._rx_above) == [1, 2]
        self.deliver(comp, 0)
        assert out == [0, 1, 2]
        assert not rel._rx_above and rel._rx_low == 3

    def test_duplicate_below_the_watermark_dropped(self, comp):
        rel, out = self.make(comp)
        self.deliver(comp, 0)
        self.deliver(comp, 0)
        assert out == [0]
        assert rel.stats_dup_rx == 1

    def test_remove_flushes_held_segments(self, comp):
        rel, out = self.make(comp)
        self.deliver(comp, 3)
        self.deliver(comp, 1)
        assert out == []
        comp.remove_micro("reliability")
        assert out == [1, 3]  # flushed in seq order


class TestModes:
    def test_factory(self):
        assert isinstance(make_mode(CommMode.SYNCHRONOUS), SynchronousMode)
        assert isinstance(make_mode(CommMode.ASYNCHRONOUS), AsynchronousMode)

    def test_factory_rejects_unknown_modes(self):
        with pytest.raises(ValueError, match="unknown communication mode"):
            make_mode("semi-synchronous")

    def test_appack_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="appack_timeout"):
            SynchronousMode(appack_timeout=0.0)

    def test_async_send_completes_immediately(self, comp):
        comp.add_micro(BufferManagement())
        comp.add_micro(AsynchronousMode())
        done = comp.sim.event()
        user_send(comp, "x", completion=done)
        assert done.triggered

    def test_sync_send_waits_for_appack(self, comp):
        comp.add_micro(BufferManagement())
        mode = comp.add_micro(SynchronousMode())
        done = comp.sim.event()
        msg = user_send(comp, "x", completion=done)
        assert not done.triggered
        comp.bus.raise_event("RxAppAck", msg.message_id)
        assert done.triggered
        assert mode.stats_appacks_rx == 1

    def test_sync_receive_sends_appack_on_consumption(self, comp):
        comp.add_micro(BufferManagement())
        mode = comp.add_micro(SynchronousMode())
        sent_ctrl = []
        comp.bus.bind("SendControl", lambda k, f: sent_ctrl.append((k, f)))
        msg = Message("data")
        msg.meta["needs_appack_rx"] = True
        msg.meta["src_message_id"] = 42
        comp.bus.raise_event("RxDeliver", msg, None)
        request = comp.sim.event()
        comp.bus.raise_event("UserReceive", request)
        assert request.triggered
        assert ("APPACK", {"msg_id": 42}) in sent_ctrl

    def test_sync_receive_blocks_until_delivery(self, comp):
        comp.add_micro(BufferManagement())
        comp.add_micro(SynchronousMode())
        request = comp.sim.event()
        comp.bus.raise_event("UserReceive", request)
        assert not request.triggered
        comp.bus.raise_event("RxDeliver", Message("late"), None)
        assert request.triggered

    def test_async_receive_returns_none_when_empty(self, comp):
        comp.add_micro(BufferManagement())
        comp.add_micro(AsynchronousMode())
        request = comp.sim.event()
        comp.bus.raise_event("UserReceive", request)
        assert request.triggered
        assert request.value is None

    def test_appack_timeout_releases_sender(self, comp):
        sim = comp.sim
        comp.add_micro(BufferManagement())
        mode = comp.add_micro(SynchronousMode(appack_timeout=2.0))
        done = sim.event()
        user_send(comp, "x", completion=done)
        sim.run(until=3.0)
        assert done.triggered
        assert mode.stats_appack_timeouts == 1

    def test_mode_removal_releases_pending_sync_sends(self, comp):
        """The hybrid-scheme hinge: sync→async reconfiguration must not
        leave the application blocked."""
        comp.add_micro(BufferManagement())
        comp.add_micro(SynchronousMode())
        done = comp.sim.event()
        user_send(comp, "x", completion=done)
        assert not done.triggered
        comp.remove_micro("mode-sync")
        assert done.triggered
