"""Per-session state stays bounded by what is in flight, not by history.

Two leaks this suite pins shut, and the contract that replaced the fix
of the first:

- every acknowledged message used to pin its ``RetransmitCheck`` and (in
  synchronous mode) its 30-sim-second ``AppAckTimeout`` timer until the
  timer would have fired.  Now each session keeps per-message deadlines
  and one armed timer per micro-protocol: at most one ``RetransmitCheck``
  and one ``AppAckTimeout`` timer on the DES queue at any instant, none
  once the micro-protocol is removed, and deadline queues no longer than
  what is unacknowledged plus the head an ACK has not pruned yet;
- reliability's receive-side dedup remembered every sequence number of
  the session in one ever-growing set.  Its receive state is now a
  watermark plus the segments held above it, waiting for a gap to fill:
  the reorder window, not the history.
"""

from repro.cactus.composite import CompositeProtocol
from repro.cactus.events import Timer
from repro.cactus.messages import Message
from repro.p2psap.context import ChannelConfig, CommMode
from repro.p2psap.data_channel import DataChannel
from repro.p2psap.microprotocols.modes import SynchronousMode
from repro.p2psap.microprotocols.reliability import Reliability
from repro.simnet.kernel import Simulator
from repro.simnet.network import Netem, Network

SYNC = ChannelConfig(mode=CommMode.SYNCHRONOUS, reliable=True)


def armed(sim, micro):
    """How many timers of ``micro`` wait on the DES queue uncancelled."""
    count = 0
    for *_, event in sim._queue:
        for callback in event.callbacks:
            timer = getattr(callback, "__self__", None)
            if (isinstance(timer, Timer) and not timer._cancelled
                    and getattr(timer._fn, "__self__", None) is micro):
                count += 1
    return count


def sync_pair(n):
    sim = Simulator()
    net = Network(sim, intra_netem=Netem(delay=0.0001))
    a, b = net.add_node("a"), net.add_node("b")
    cha = DataChannel(sim, net, a, "b", 9, SYNC)
    chb = DataChannel(sim, net, b, "a", 9, SYNC)
    done = []

    def sender():
        for i in range(n):
            yield cha.user_send(i)
        done.append(sim.now)

    def receiver():
        for _ in range(n):
            yield chb.user_receive()

    sim.spawn(sender())
    sim.spawn(receiver())
    return sim, cha, done


def test_acknowledged_messages_release_their_timers():
    n = 5000
    sim, cha, done = sync_pair(n)
    rel = cha.transport.micro("reliability")
    mode = cha.transport.micro("mode-sync")
    most = rel_queue = mode_queue = 0
    while not done:
        sim.step()
        most = max(most, armed(sim, rel), armed(sim, mode))
        rel_queue = max(rel_queue, len(rel._deadlines) - rel.unacked_count)
        mode_queue = max(mode_queue,
                         len(mode._deadlines) - len(mode._pending_appack))
    # The stream outlives the RTO many times over, so the retransmission
    # timer fired and re-armed along the way, and the deadlines of
    # acknowledged messages were pruned rather than left to fire.
    assert done[0] > 1.0 and rel.stats_retransmits == 0
    assert most == 1
    assert rel_queue <= 1 and mode_queue <= 1
    for micro in (rel, mode):
        assert armed(sim, micro) == (micro._timer is not None)
    assert not mode._pending_appack and len(mode._deadlines) <= 1


def test_a_rearmed_timer_leaves_no_live_one_behind():
    """An earlier deadline cancels the armed timer and arms a new one:
    whatever the deadlines, one live timer, and none once all is ACKed
    and it has fired."""
    sim = Simulator()
    comp = CompositeProtocol(sim, "t")
    rel = comp.add_micro(Reliability())
    arms = []
    call_at = comp.bus.call_at
    comp.bus.call_at = lambda *args: arms.append(call_at(*args)) or arms[-1]
    n = 5000
    for seq in range(n):
        comp.shared["rto"] = 1.0 + (n - seq) * 1e-3  # each deadline earlier
        msg = Message(seq)
        msg.meta["seq"] = seq
        comp.bus.raise_event("TxSegment", msg)
        if seq % 250 == 0:
            assert armed(sim, rel) == 1
    assert len(arms) == n and armed(sim, rel) == 1
    for seq in range(0, n, 2):
        comp.bus.raise_event("RxAck", seq, None)
    sim.run(until=0.5)
    assert armed(sim, rel) == 1
    for seq in range(1, n, 2):
        comp.bus.raise_event("RxAck", seq, None)
    assert not rel._deadlines
    sim.run()
    assert armed(sim, rel) == 0 and rel._timer is None
    assert rel.stats_retransmits == 0


def test_removing_reliability_cancels_its_timer():
    sim = Simulator()
    comp = CompositeProtocol(sim, "t")
    rel = comp.add_micro(Reliability())
    checks = []
    comp.bus.bind("RetransmitCheck", checks.append)
    msg = Message("x")
    msg.meta["seq"] = 0
    comp.bus.raise_event("TxSegment", msg)
    assert armed(sim, rel) == 1
    comp.remove_micro("reliability")
    assert armed(sim, rel) == 0 and rel._timer is None
    sim.run()
    assert checks == []


def test_removing_synchronous_mode_cancels_its_timer():
    sim = Simulator()
    comp = CompositeProtocol(sim, "t")
    mode = comp.add_micro(SynchronousMode())
    timeouts = []
    comp.bus.bind("AppAckTimeout", timeouts.append)
    msg = Message("x")
    completion = msg.meta["completion"] = sim.event()
    comp.bus.raise_event("UserSend", msg)
    assert armed(sim, mode) == 1
    comp.remove_micro("mode-sync")
    assert armed(sim, mode) == 0 and mode._timer is None
    assert completion.triggered and completion.value is None  # released
    sim.run()
    assert timeouts == []


def test_closing_a_channel_mid_stream_leaves_no_timer_armed():
    sim, cha, done = sync_pair(50)
    rel = cha.transport.micro("reliability")
    mode = cha.transport.micro("mode-sync")
    while not (armed(sim, rel) and armed(sim, mode)):
        sim.step()
    cha.close()
    assert armed(sim, rel) == 0 and armed(sim, mode) == 0
    assert rel._timer is None and mode._timer is None


def make_receiver():
    comp = CompositeProtocol(Simulator(), "transport")
    rel = comp.add_micro(Reliability())
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
    assert delivered == list(range(800))  # each block released in sequence
    assert peak == window - 1
    assert len(rel._rx_above) == 0 and rel._rx_low == 800


def test_late_duplicates_below_the_watermark_are_counted_and_reacked():
    comp, rel, delivered, acks = make_receiver()
    for seq in (0, 1, 2, 5, 3):
        rx(comp, seq)
    assert rel._rx_low == 4 and list(rel._rx_above) == [5]
    for seq in (1, 5, 0):  # below the watermark, held above it, below again
        rx(comp, seq)
    assert rel.stats_dup_rx == 3
    assert delivered == [0, 1, 2, 3]  # 5 waits for 4
    assert acks == [0, 1, 2, 5, 3, 1, 5, 0]  # duplicates are re-ACKed
    assert rel.stats_acks_tx == 8
    rx(comp, 4)
    assert rel._rx_low == 6 and not rel._rx_above
    assert delivered == [0, 1, 2, 3, 4, 5]
