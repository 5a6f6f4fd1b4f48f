"""Per-session state stays bounded by what is in flight, not by history.

Two leaks this suite pins shut:

- every acknowledged message used to pin its ``RetransmitCheck`` and (in
  synchronous mode) its 30-sim-second ``AppAckTimeout`` timer until the
  timer would have fired, and ``set_timer`` rescanned the whole timer
  list on every call once more than 64 were live;
- reliability's receive-side dedup remembered every sequence number of
  the session in one ever-growing set.
"""

import math

from repro.cactus.composite import CompositeProtocol
from repro.cactus.messages import Message
from repro.p2psap.context import ChannelConfig, CommMode
from repro.p2psap.data_channel import DataChannel
from repro.p2psap.microprotocols.reliability import Reliability
from repro.simnet.kernel import Simulator
from repro.simnet.network import Netem, Network

SYNC = ChannelConfig(mode=CommMode.SYNCHRONOUS, reliable=True, ordered=True)


def test_acknowledged_messages_release_their_timers():
    n = 5000
    sim = Simulator()
    net = Network(sim, intra_netem=Netem(delay=0.0001))
    a, b = net.add_node("a"), net.add_node("b")
    cha = DataChannel(sim, net, a, "b", 9, SYNC)
    chb = DataChannel(sim, net, b, "a", 9, SYNC)
    micros = [cha.transport.micro("reliability"), cha.transport.micro("mode-sync")]
    armed = []
    done = []

    def sender():
        for i in range(n):
            yield cha.user_send(i)
            armed.append(max(len(m._timers) for m in micros))
        done.append(sim.now)

    def receiver():
        for _ in range(n):
            yield chb.user_receive()

    sim.spawn(sender())
    sim.spawn(receiver())
    while not done:
        sim.step()
    # The stream finishes long before the first 30 s AppAckTimeout could
    # fire, so a timer that is not cancelled on acknowledgement is still
    # armed at the end.
    assert done[0] < 30.0
    # Synchronous: one message in flight, so at most a timer or two per
    # micro-protocol at any instant — never one per message sent.
    assert max(armed) <= 4
    for micro in micros:
        assert micro.stats_timer_sweeps <= math.ceil(math.log2(n))
        assert not any(t.active for t in micro._timers)


def test_timer_sweeps_are_amortised_with_many_live_timers():
    """A window of > 64 live timers must not trigger a rescan per call."""
    sim = Simulator()
    comp = CompositeProtocol(sim, "t")
    rel = comp.add_micro(Reliability())
    n = 5000
    for seq in range(n):
        rel.set_timer(1000.0, "RetransmitCheck", seq)  # all stay live
    assert len(rel._timers) == n
    assert rel.stats_timer_sweeps <= math.ceil(math.log2(n))


def make_receiver():
    comp = CompositeProtocol(Simulator(), "transport")
    rel = comp.add_micro(Reliability(next_stage="RxDeliver"))
    delivered, acks = [], []
    comp.bus.bind("RxDeliver", lambda msg, fields: delivered.append(fields["seq"]))
    comp.bus.bind("SendControl", lambda kind, fields: acks.append(fields["seq"]))
    return comp, rel, delivered, acks


def rx(comp, seq):
    comp.bus.raise_event("RxData", Message(seq), {"seq": seq, "ts": None})


def test_dedup_state_is_the_reorder_window_not_the_history():
    comp, rel, delivered, acks = make_receiver()
    n = 10_000
    for seq in range(n):
        rx(comp, seq)
        assert len(rel._rx_above) == 0
    assert rel._rx_low == n
    assert delivered == list(range(n))
    assert rel.stats_dup_rx == 0


def test_reordered_segments_collapse_into_the_watermark():
    comp, rel, delivered, acks = make_receiver()
    window = 8
    # Every block of `window` segments arrives back to front.
    order = [base + k for base in range(0, 800, window)
             for k in reversed(range(window))]
    peak = 0
    for seq in order:
        rx(comp, seq)
        peak = max(peak, len(rel._rx_above))
    assert delivered == order  # dedup passes fresh segments straight on
    assert peak == window - 1
    assert len(rel._rx_above) == 0 and rel._rx_low == 800


def test_late_duplicates_below_the_watermark_are_counted_and_reacked():
    comp, rel, delivered, acks = make_receiver()
    for seq in (0, 1, 2, 5, 3):
        rx(comp, seq)
    assert rel._rx_low == 4 and rel._rx_above == {5}
    for seq in (1, 5, 0):  # below the watermark, above it, below again
        rx(comp, seq)
    assert rel.stats_dup_rx == 3
    assert delivered == [0, 1, 2, 5, 3]
    assert acks == [0, 1, 2, 5, 3, 1, 5, 0]  # duplicates are re-ACKed
    assert rel.stats_acks_tx == 8
    rx(comp, 4)
    assert rel._rx_low == 6 and not rel._rx_above
