"""End-to-end data-channel tests over the simulated network."""

import numpy as np
import pytest

from repro.cactus.messages import Message
from repro.p2psap.context import ChannelConfig, CommMode
from repro.p2psap.data_channel import DataChannel
from repro.simnet.kernel import Simulator
from repro.simnet.network import Netem, Network

SYNC = ChannelConfig(mode=CommMode.SYNCHRONOUS, reliable=True)
ASYNC_RELIABLE = ChannelConfig(mode=CommMode.ASYNCHRONOUS, reliable=True)
ASYNC_UNRELIABLE = ChannelConfig(
    mode=CommMode.ASYNCHRONOUS, reliable=False, congestion="none"
)


def make_pair(config, delay=0.001, loss=0.0, bandwidth=100e6):
    sim = Simulator()
    net = Network(sim, intra_netem=Netem(delay=delay, loss=loss),
                  intra_bandwidth_bps=bandwidth)
    a = net.add_node("a")
    b = net.add_node("b")
    cha = DataChannel(sim, net, a, "b", 9, config)
    chb = DataChannel(sim, net, b, "a", 9, config)
    return sim, cha, chb


class TestSyncChannel:
    def test_rendezvous_send_blocks_until_consumed(self):
        sim, cha, chb = make_pair(SYNC)
        times = {}

        def sender():
            yield cha.user_send("x")
            times["send_done"] = sim.now

        def receiver():
            yield sim.timeout(1.0)  # consume late
            msg = yield chb.user_receive()
            times["received"] = sim.now

        sim.spawn(sender())
        sim.spawn(receiver())
        sim.run(until=10)
        # Send completes only after consumption (+ APPACK latency).
        assert times["send_done"] >= times["received"]

    def test_messages_delivered_in_order(self):
        sim, cha, chb = make_pair(SYNC)
        got = []

        def sender():
            for i in range(10):
                yield cha.user_send(i)

        def receiver():
            for _ in range(10):
                msg = yield chb.user_receive()
                got.append(msg.payload)

        sim.spawn(sender())
        sim.spawn(receiver())
        sim.run(until=30)
        assert got == list(range(10))

    def test_reliable_under_loss(self):
        sim, cha, chb = make_pair(SYNC, loss=0.3)
        got = []

        def sender():
            for i in range(5):
                yield cha.user_send(i)

        def receiver():
            for _ in range(5):
                msg = yield chb.user_receive()
                got.append(msg.payload)

        sim.spawn(sender())
        sim.spawn(receiver())
        sim.run(until=120)
        assert got == [0, 1, 2, 3, 4]

    def test_numpy_payload_zero_copy_reference(self):
        sim, cha, chb = make_pair(SYNC)
        plane = np.arange(16.0).reshape(4, 4)
        received = []

        def sender():
            yield cha.user_send(plane)

        def receiver():
            msg = yield chb.user_receive()
            received.append(msg.payload)

        sim.spawn(sender())
        sim.spawn(receiver())
        sim.run(until=10)
        # Zero-copy through the whole simulated stack: same object.
        assert received[0] is plane


class TestAsyncChannel:
    def test_send_returns_immediately(self):
        sim, cha, chb = make_pair(ASYNC_UNRELIABLE, delay=0.5)

        def sender():
            yield cha.user_send("x")
            return sim.now

        p = sim.spawn(sender())
        sim.run(until=2)
        assert p.value == 0.0  # no waiting for the 0.5 s link

    def test_unreliable_drops_are_tolerated(self):
        sim, cha, chb = make_pair(ASYNC_UNRELIABLE, loss=0.5)

        def sender():
            for i in range(200):
                yield cha.user_send(i)

        sim.spawn(sender())
        sim.run(until=30)
        got = 0
        while chb.user_receive_nowait()[0]:
            got += 1
        assert 40 < got < 160  # ~50% loss, no retransmission

    def test_receive_latest_nowait_supersedes(self):
        sim, cha, chb = make_pair(ASYNC_UNRELIABLE)

        def sender():
            for i in range(5):
                yield cha.user_send(i)

        sim.spawn(sender())
        sim.run(until=5)
        ok, payload = chb.user_receive_latest_nowait()
        assert ok and payload == 4
        assert chb.user_receive_nowait() == (False, None)


class TestAbandonedSegment:
    def test_delivery_moves_past_a_segment_the_sender_gave_up_on(self):
        """The sender gives message 0 up after ``MAX_RETRANSMITS``; the
        receiver must not wait for it: the 20 messages sent after it are
        delivered in order and none is left held."""
        sim, cha, chb = make_pair(ASYNC_RELIABLE)
        sender = cha.transport.micro("reliability")
        receiver = chb.transport.micro("reliability")
        sender.MAX_RETRANSMITS = 3
        link = cha.physical.network.link("a", "b")
        link.reconfigure(netem=Netem(delay=0.001, loss=1.0))
        cha.user_send(0)
        sim.run(until=100.0)
        assert sender.stats_abandoned == 1 and sender.unacked_count == 0
        link.reconfigure(netem=Netem(delay=0.001))
        for i in range(1, 21):
            cha.user_send(i)
        sim.run(until=sim.now + 200.0)
        got = [chb.user_receive_nowait()[1] for _ in range(chb.pending_rx())]
        assert got == list(range(1, 21))
        assert receiver._rx_above == {} and receiver._rx_low == 21

    def test_held_segments_are_released_when_nothing_follows_the_gap(self):
        """Every transmission of DATA seq 0 is lost and the other 20 land
        and wait above the gap; nothing is sent after the sender gives 0
        up, so its ``LOW`` frame alone must tell the receiver to move
        its watermark: the 20 are delivered in order, none is held."""
        sim, cha, chb = make_pair(ASYNC_RELIABLE)
        sender = cha.transport.micro("reliability")
        receiver = chb.transport.micro("reliability")
        sender.MAX_RETRANSMITS = 3
        link = cha.physical.network.link("a", "b")
        transmit = link.transmit

        def drop_seq0(packet):
            fields = packet.payload[0][-1][1]
            if not (fields["kind"] == "DATA" and fields["seq"] == 0):
                transmit(packet)

        link.transmit = drop_seq0
        for i in range(21):
            cha.user_send(i)
        sim.run(until=200.0)
        assert sender.stats_abandoned == 1 and sender.unacked_count == 0
        got = [chb.user_receive_nowait()[1] for _ in range(chb.pending_rx())]
        assert got == list(range(1, 21))
        assert receiver._rx_above == {} and receiver._rx_low == 21

    def test_segments_held_behind_the_gap_are_released_in_order(self):
        """Segments 1..3 wait above the gap of segment 0; once a header
        says that nothing below 1 comes again, they go up in order, and
        the watermark is where the next gap (4) begins."""
        sim, cha, chb = make_pair(ASYNC_RELIABLE)
        comp = chb.transport
        receiver = comp.micro("reliability")
        got = []
        comp.bus.bind("RxDeliver", lambda msg, fields: got.append(msg.payload),
                      order=0)
        for seq in (1, 2, 3):
            comp.bus.raise_event("RxData", Message(seq),
                                 {"seq": seq, "low": 0, "ts": None})
        assert got == [] and sorted(receiver._rx_above) == [1, 2, 3]
        comp.bus.raise_event("RxData", Message(5),
                             {"seq": 5, "low": 1, "ts": None})
        assert got == [1, 2, 3] and receiver._rx_low == 4
        assert sorted(receiver._rx_above) == [5]
        comp.bus.raise_event("RxData", Message(4),
                             {"seq": 4, "low": 4, "ts": None})
        assert got == [1, 2, 3, 4, 5] and receiver._rx_above == {}


class TestWholeMessages:
    """The stack has no MTU: a message of any size is one segment, and
    reliability acts on it whole."""

    @pytest.mark.parametrize("payload", [
        b"tiny",
        np.arange(32.0 * 32).reshape(32, 32),  # one 8 KiB plane
        np.arange(128.0 * 128 * 8),            # 1 MiB
    ], ids=["bytes", "plane", "1MiB"])
    def test_message_travels_as_one_segment(self, payload):
        sim, cha, chb = make_pair(ASYNC_RELIABLE)
        segments = []
        cha.transport.bus.bind("TxSegment", segments.append, order=99)

        def sender():
            yield cha.user_send(payload)

        sim.spawn(sender())
        sim.run(until=30)
        ok, received = chb.user_receive_nowait()
        assert ok
        np.testing.assert_array_equal(received, payload)
        assert len(segments) == 1

    def test_large_message_survives_loss_with_reliability(self):
        sim, cha, chb = make_pair(ASYNC_RELIABLE, loss=0.5)
        blob = bytes(range(256)) * 8

        def sender():
            yield cha.user_send(blob)

        sim.spawn(sender())
        sim.run(until=120)
        ok, payload = chb.user_receive_nowait()
        assert ok and payload == blob
        assert cha.transport.micro("reliability").stats_retransmits > 0

    def test_large_messages_keep_their_send_order(self):
        sim, cha, chb = make_pair(ASYNC_RELIABLE, loss=0.2)
        blobs = [bytes([i]) * 1000 for i in range(5)]

        def sender():
            for blob in blobs:
                yield cha.user_send(blob)

        sim.spawn(sender())
        sim.run(until=120)
        got = []
        while True:
            ok, payload = chb.user_receive_nowait()
            if not ok:
                break
            got.append(payload)
        assert got == blobs
        assert cha.transport.micro("reliability").stats_retransmits > 0

    def test_reordering_link_delivers_in_send_order(self):
        sim, cha, chb = make_pair(ASYNC_RELIABLE)
        link = cha.physical.network.link("a", "b")
        link.reconfigure(netem=Netem(delay=0.001, jitter=0.0008, reorder=0.3))
        arrivals = []
        chb.transport.bus.bind("RxData", lambda msg, f: arrivals.append(f["seq"]),
                               order=0)

        def sender():
            for i in range(50):
                yield cha.user_send(i)
                yield sim.timeout(0.0002)

        sim.spawn(sender())
        sim.run(until=30)
        got = []
        while True:
            ok, payload = chb.user_receive_nowait()
            if not ok:
                break
            got.append(payload)
        assert arrivals != sorted(arrivals)  # the link did reorder
        assert got == list(range(50))

    def test_reconfigured_to_plain_channel_still_delivers_whole(self):
        sim, cha, chb = make_pair(ASYNC_RELIABLE)
        for ch in (cha, chb):
            ch.reconfigure(ASYNC_UNRELIABLE)
            assert not ch.transport.has_micro("reliability")
        big = bytes(1000)

        def sender():
            yield cha.user_send(big)

        sim.spawn(sender())
        sim.run(until=30)
        ok, payload = chb.user_receive_nowait()
        assert ok and payload == big


class TestReconfiguration:
    def test_epoch_scopes_sequence_space(self):
        sim, cha, chb = make_pair(ASYNC_UNRELIABLE, delay=0.2)

        def scenario():
            for i in range(5):
                yield cha.user_send(i)  # in flight during reconfig
            cha.reconfigure(SYNC)
            chb.reconfigure(SYNC)
            yield cha.user_send("fresh")

        sim.spawn(scenario())
        sim.run(until=60)
        ok, payload = chb.user_receive_nowait()
        assert ok and payload == "fresh"
        assert chb.stats_stale_epoch == 5  # old-regime segments dropped

    def test_queued_messages_survive_reconfiguration(self):
        sim, cha, chb = make_pair(SYNC)
        chb_buffer = []

        def scenario():
            cha.transport.shared["cwnd"] = 0.0  # block the window
            done = cha.user_send("queued")
            cha.reconfigure(ASYNC_UNRELIABLE)  # unwindowed now
            yield sim.timeout(1.0)

        sim.spawn(scenario())
        sim.run(until=10)
        ok, payload = chb.user_receive_nowait()
        # chb still in SYNC epoch 0 vs cha epoch 1: reconfigure both sides
        # is the contract; here we only assert cha flushed its queue.
        assert cha.buffers.pending_tx() == 0

    def test_mode_substitution_keeps_the_physical_layer(self):
        sim, cha, chb = make_pair(SYNC)
        physical = (cha.physical, chb.physical)

        def scenario():
            yield cha.user_send("in-sync-mode")
            cha.reconfigure(ASYNC_RELIABLE)
            chb.reconfigure(ASYNC_RELIABLE)
            yield cha.user_send("in-async-mode")

        got = []

        def receiver():
            msg = yield chb.user_receive()
            got.append(msg.payload)
            while len(got) < 2:
                msg = yield chb.user_receive()
                if msg is None:  # empty asynchronous receive
                    yield sim.timeout(0.01)
                    continue
                got.append(msg.payload)

        sim.spawn(scenario())
        sim.spawn(receiver())
        sim.run(until=60)
        assert got == ["in-sync-mode", "in-async-mode"]
        assert (cha.physical, chb.physical) == physical
        assert cha.transport.has_micro("mode-async")
        assert not cha.transport.has_micro("mode-sync")

    def test_noop_reconfigure_is_free(self):
        sim, cha, chb = make_pair(SYNC)
        cha.reconfigure(SYNC)
        assert cha.stats_reconfigurations == 0
        assert cha.epoch == 0

    def test_closed_channel_rejects_everything(self):
        sim, cha, chb = make_pair(SYNC)
        cha.close()
        with pytest.raises(RuntimeError):
            cha.user_send("x")
        with pytest.raises(RuntimeError):
            cha.user_receive()
        with pytest.raises(RuntimeError):
            cha.reconfigure(ASYNC_UNRELIABLE)
        with pytest.raises(RuntimeError):
            cha.user_receive_nowait()
        with pytest.raises(RuntimeError):
            cha.user_receive_latest_nowait()
        cha.close()  # idempotent


class TestCongestionIntegration:
    def test_window_grows_over_clean_transfer(self):
        sim, cha, chb = make_pair(SYNC, delay=0.01)

        def sender():
            for i in range(40):
                yield cha.user_send(i)

        def receiver():
            for _ in range(40):
                yield chb.user_receive()

        sim.spawn(sender())
        sim.spawn(receiver())
        sim.run(until=120)
        cc = cha.transport.micro("cc-newreno")
        assert cc.cwnd > cc.INITIAL_WINDOW
        assert cc.stats_acks >= 40

    def test_loss_shrinks_window_via_timeouts(self):
        sim, cha, chb = make_pair(SYNC, loss=0.4, delay=0.01)

        def sender():
            for i in range(20):
                yield cha.user_send(i)

        def receiver():
            for _ in range(20):
                yield chb.user_receive()

        sim.spawn(sender())
        sim.spawn(receiver())
        sim.run(until=600)
        cc = cha.transport.micro("cc-newreno")
        assert cc.stats_timeouts > 0


def tap_wire(cha, chb):
    """Every frame either endpoint puts on the wire, lost or not, as
    ``(sender, kind)``; ``drop(sender, kind)`` loses the next such frame."""
    sent, drops = [], []
    for ch in (cha, chb):
        name = ch.local.name
        link = ch.physical.network.link(name, ch.remote_name)

        def tapped(packet, transmit=link.transmit, name=name):
            frame = (name, packet.payload[0][-1][1]["kind"])
            sent.append(frame)
            if frame in drops:
                drops.remove(frame)
            else:
                transmit(packet)

        link.transmit = tapped
    return sent, drops.append


class TestMergedAck:
    """A synchronous DATA segment holds its transport ACK until the end
    of its receive chain; if the application takes the message inside
    it, the ACK rides on the APPACK as one ``ACK+APPACK`` frame."""

    def stream(self, config, receive_at, messages=1, drop=None, until=60.0):
        sim, cha, chb = make_pair(config)
        sent, drop_next = tap_wire(cha, chb)
        if drop is not None:
            drop_next(drop)
        done, got = [], []

        def sender():
            for i in range(messages):
                done.append((yield cha.user_send(i)))

        def receiver():
            yield sim.timeout(receive_at)
            while len(got) < messages:
                msg = yield chb.user_receive()
                if msg is None:  # empty asynchronous receive
                    yield sim.timeout(1e-4)
                    continue
                got.append(msg.payload)

        sim.spawn(receiver())
        sim.spawn(sender())
        sim.run(until=until)
        return sim, cha, sent, done, got

    def test_a_posted_receive_costs_two_wire_packets(self):
        sim, cha, sent, done, got = self.stream(SYNC, receive_at=0.0)
        assert sent == [("a", "DATA"), ("b", "ACK+APPACK")]
        assert got == [0] and len(done) == 1 and done[0] is not None
        mode = cha.transport.micro("mode-sync")
        assert mode.stats_appacks_rx == 1 and mode.stats_appack_timeouts == 0
        assert cha.transport.micro("reliability").unacked_count == 0

    def test_a_receive_posted_later_costs_three(self):
        sim, cha, sent, done, got = self.stream(SYNC, receive_at=1.0)
        assert sent == [("a", "DATA"), ("b", "ACK"), ("b", "APPACK")]
        assert got == [0] and len(done) == 1 and done[0] is not None
        assert cha.transport.micro("reliability").stats_retransmits == 0
        assert cha.transport.micro("mode-sync").stats_appacks_rx == 1

    def test_the_merged_frame_raises_the_ack_then_the_appack(self):
        sim, cha, chb = make_pair(SYNC)
        seen = []
        for event in ("RxAck", "RxAppAck"):
            cha.transport.bus.bind(
                event, lambda *args, event=event: seen.append(event), order=0)
        chb.user_receive()
        cha.user_send("x")
        sim.run(until=5.0)
        assert seen == ["RxAck", "RxAppAck"]

    def test_losing_the_merged_frame_is_losing_an_appack(self):
        """DATA is retransmitted, its duplicate is ACKed alone, the message
        is delivered once, and the send completes by ``appack_timeout``."""
        sim, cha, sent, done, got = self.stream(
            SYNC, receive_at=0.0, drop=("b", "ACK+APPACK"))
        assert sent == [("a", "DATA"), ("b", "ACK+APPACK"),
                        ("a", "DATA"), ("b", "ACK")]
        assert got == [0] and done == [None]
        mode = cha.transport.micro("mode-sync")
        assert mode.stats_appack_timeouts == 1 and mode.stats_appacks_rx == 0
        rel = cha.transport.micro("reliability")
        assert rel.stats_retransmits == 1 and rel.unacked_count == 0

    def test_an_asynchronous_channel_sends_what_it_sent_before(self):
        sim, cha, sent, done, got = self.stream(ASYNC_RELIABLE, receive_at=0.0,
                                                messages=5)
        assert got == list(range(5))
        assert sorted(sent) == [("a", "DATA")] * 5 + [("b", "ACK")] * 5
