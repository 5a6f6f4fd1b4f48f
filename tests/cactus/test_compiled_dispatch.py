"""Dispatch semantics under compilation.

The bus keeps one compiled callable per event and the stack caches each
layer's neighbours.  Both are caches of mutable structure, so every
mutation path has to invalidate them, and a dispatch already running has
to finish on the chain it started with — the per-raise snapshot
behaviour the uncompiled bus had.
"""

import numpy as np
import pytest

from repro.cactus.composite import CompositeProtocol, CompositionError, ProtocolStack
from repro.cactus.events import EventBus
from repro.cactus.messages import Message, payload_nbytes
from repro.p2psap.context import ChannelConfig, CommMode
from repro.p2psap.data_channel import DataChannel
from repro.p2psap.physical import ETHERNET, PhysicalProtocol
from repro.p2psap.rules import TABLE_I
from repro.simnet.kernel import Simulator
from repro.simnet.network import Netem, Network, Packet


class TestSnapshotSemantics:
    def test_bind_unbind_and_reraise_mid_dispatch(self):
        """One handler unbinds itself and a later handler, binds a new
        one and re-raises the same event, all inside a dispatch."""
        bus = EventBus(Simulator())
        log = []

        def mutator(depth):
            log.append(("mutator", depth))
            bus.unbind("E", mutator)
            bus.unbind("E", victim)
            bus.bind("E", newcomer, order=5)
            # The nested raise sees the *new* chain: bystander, newcomer.
            bus.raise_event("E", depth + 1)

        def bystander(depth):
            log.append(("bystander", depth))

        def victim(depth):
            log.append(("victim", depth))

        def newcomer(depth):
            log.append(("newcomer", depth))

        bus.bind("E", mutator, order=0)
        bus.bind("E", bystander, order=1)
        bus.bind("E", victim, order=2)
        bus.raise_event("E", 0)
        assert log == [
            ("mutator", 0),
            ("bystander", 1), ("newcomer", 1),  # nested: the rebuilt chain
            ("bystander", 0), ("victim", 0),    # outer: the chain it began with
        ]
        assert bus.handlers_for("E") == [bystander, newcomer]
        del log[:]
        bus.raise_event("E", 2)
        assert log == [("bystander", 2), ("newcomer", 2)]

    def test_handlers_for_is_a_copy(self):
        bus = EventBus(Simulator())
        bus.bind("E", print)
        bus.handlers_for("E").clear()
        assert bus.handlers_for("E") == [print]

    def test_unbinding_the_last_handler_leaves_a_silent_event(self):
        bus = EventBus(Simulator())
        got = []
        record = got.append
        bus.bind("E", record)
        bus.unbind("E", record)
        bus.raise_event("E", 1)
        assert bus.handlers_for("E") == [] and got == []

    @pytest.mark.parametrize("n_handlers", [0, 1, 2])
    def test_a_keyword_raise_is_rejected(self, n_handlers):
        bus = EventBus(Simulator())
        got = []
        for i in range(n_handlers):
            bus.bind("E", lambda a, k=None, i=i: got.append((i, a, k)))
        with pytest.raises(TypeError):
            bus.raise_event("E", 1, k=2)
        assert got == []
        bus.raise_event("E", 1)
        assert got == [(i, 1, None) for i in range(n_handlers)]


class TestCompiledCallable:
    """``bus.compiled[name]`` is the one callable a raise runs."""

    def test_no_handler_compiles_to_a_no_op(self):
        bus = EventBus(Simulator())
        assert bus.compiled["Never"]() is None
        assert bus.compiled["Never"] is bus.compiled["Other"]
        assert bus.handlers_for("Never") == []

    def test_one_handler_is_called_as_is(self):
        bus = EventBus(Simulator())
        got = []
        record = got.append
        bus.bind("E", record)
        assert bus.compiled["E"] is record
        bus.compiled["E"](1)
        assert got == [1]

    def test_many_handlers_run_by_order_then_binding_order(self):
        bus = EventBus(Simulator())
        log = []
        for name, order in (("b", 5), ("a", 0), ("c", 5), ("d", -1), ("e", 0)):
            bus.bind("E", lambda x, name=name: log.append((name, x)),
                     order=order)
        bus.compiled["E"](7)
        assert [name for name, _ in log] == ["d", "a", "e", "b", "c"]
        assert {x for _, x in log} == {7}

    def test_every_bind_and_unbind_recompiles(self):
        bus = EventBus(Simulator())
        got = []
        first = lambda: got.append("first")  # noqa: E731
        second = lambda: got.append("second")  # noqa: E731
        bus.compiled["E"]()  # a raise before any bind
        bus.bind("E", first)
        bus.bind("E", second)
        bus.compiled["E"]()
        bus.unbind("E", first)
        assert bus.compiled["E"] is second
        bus.unbind("E", second)
        bus.compiled["E"]()
        assert got == ["first", "second"]

    def test_a_handler_that_unbinds_itself_runs_once(self):
        bus = EventBus(Simulator())
        log = []

        def once(x):
            log.append(("once", x))
            bus.unbind("E", once)

        def always(x):
            log.append(("always", x))

        bus.bind("E", once)
        bus.bind("E", always, order=1)
        bus.compiled["E"](1)
        bus.compiled["E"](2)
        assert log == [("once", 1), ("always", 1), ("always", 2)]

    def test_a_lone_handler_that_unbinds_itself_runs_once(self):
        bus = EventBus(Simulator())
        log = []

        def once(x):
            log.append(x)
            bus.unbind("E", once)

        bus.bind("E", once)
        bus.compiled["E"](1)
        bus.compiled["E"](2)
        assert log == [1] and bus.handlers_for("E") == []

    def test_a_handler_bound_mid_dispatch_waits_for_the_next_raise(self):
        bus = EventBus(Simulator())
        log = []

        def late(x):
            log.append(("late", x))

        def binder(x):
            log.append(("binder", x))
            if x == 1:
                bus.bind("E", late, order=10)

        bus.bind("E", binder)
        bus.bind("E", lambda x: log.append(("tail", x)), order=5)
        bus.compiled["E"](1)
        bus.compiled["E"](2)
        assert log == [("binder", 1), ("tail", 1),
                       ("binder", 2), ("tail", 2), ("late", 2)]

    def test_raise_event_by_name_runs_the_compiled_callable(self):
        bus = EventBus(Simulator())
        got = []
        bus.bind("E", lambda x: got.append(("one", x)))
        bus.bind("E", lambda x: got.append(("two", x)), order=1)
        bus.raise_event("E", 1)
        bus.compiled["E"](2)
        assert got == [("one", 1), ("two", 1), ("one", 2), ("two", 2)]
        del got[:]
        bus.unbind("E", bus.handlers_for("E")[0])
        bus.raise_event("E", 3)
        bus.compiled["E"](4)
        assert got == [("two", 3), ("two", 4)]

    def test_a_wrapper_bound_through_bind_is_what_runs(self, monkeypatch):
        """A tracer that wraps handlers at bind time (as the end-to-end
        benchmark's does) sees every call of the protocol stack."""
        seen = []
        real_bind = EventBus.bind

        def wrapping_bind(bus, event_name, handler, order=0):
            def wrapper(*args):
                seen.append(event_name)
                return handler(*args)
            return real_bind(bus, event_name, wrapper, order)

        monkeypatch.setattr(EventBus, "bind", wrapping_bind)
        sim, net, cha, chb = make_pair(SYNC)
        sim.spawn(_sync_stream(sim, cha, chb, 3))
        sim.run(until=5.0)
        events = ("UserSend", "TxSegment", "FromAbove", "FromBelow",
                  "RxData", "RxDeliver", "SendControl", "RxAck",
                  "AckReceived", "TrySend", "AppDelivered", "RxAppAck")
        for event in events:
            assert event in seen, event
        # Nothing but the wrappers is bound anywhere in either stack.
        assert all(h.__name__ == "wrapper"
                   for ch in (cha, chb)
                   for layer in (ch.transport, ch.physical)
                   for event in events + ("UserReceive", "RetransmitCheck",
                                          "SegmentTimeout", "AppAckTimeout")
                   for h in layer.bus.handlers_for(event))


def _sync_stream(sim, cha, chb, count):
    def receiver():
        for _ in range(count):
            yield chb.user_receive()

    sim.spawn(receiver())
    for i in range(count):
        yield cha.user_send(i)


class TestStackLinks:
    def test_push_bottom_extends_the_cached_chain(self):
        sim = Simulator()
        a, b = CompositeProtocol(sim, "a"), CompositeProtocol(sim, "b")
        stack = ProtocolStack([a])
        with pytest.raises(CompositionError, match="bottom layer"):
            a.send_down("x")
        stack.push_bottom(b)
        got = []
        b.bus.bind("FromAbove", got.append)
        a.send_down("x")
        assert got == ["x"]


SYNC = ChannelConfig(mode=CommMode.SYNCHRONOUS, reliable=True)


def make_pair(config):
    sim = Simulator()
    net = Network(sim, intra_netem=Netem(delay=0.001))
    a, b = net.add_node("a"), net.add_node("b")
    return sim, net, DataChannel(sim, net, a, "b", 9, config), \
        DataChannel(sim, net, b, "a", 9, config)


class TestReconfigureMidStream:
    def test_messages_after_the_swap_use_the_new_composition(self):
        """sync → async between two sends: the second message goes
        through the new mode micro-protocol, over the same physical
        layer, and still arrives."""
        sim, net, cha, chb = make_pair(SYNC)
        got, received = [], []

        def receiver():
            while len(got) < 2:
                msg = yield chb.user_receive()
                if msg is None:
                    yield sim.timeout(0.001)
                else:
                    got.append(msg.payload)

        def sender():
            yield cha.user_send("one")
            new = ChannelConfig(mode=CommMode.ASYNCHRONOUS, reliable=False,
                                congestion="none")
            frames = (cha.physical.stats_tx_frames, chb.physical.stats_rx_frames)
            cha.reconfigure(new)
            chb.reconfigure(new)
            assert cha.transport.has_micro("mode-async")
            assert not cha.transport.has_micro("reliability")
            assert cha.transport._below is cha.physical
            assert cha.physical._above is cha.transport
            done = cha.user_send("two")
            assert done.triggered  # asynchronous now: completes at once
            yield done
            assert cha.physical.stats_tx_frames == frames[0] + 1
            received.append(frames[1])

        sim.spawn(receiver())
        sim.spawn(sender())
        sim.run(until=5.0)
        assert got == ["one", "two"]
        assert chb.physical.stats_rx_frames == received[0] + 1


class TestNoDefensiveCopy:
    """The wire carries the shell's header dicts themselves; that is
    sound only because no one writes them after ``send_down``."""

    @pytest.mark.parametrize("cell", sorted(TABLE_I, key=str),
                             ids=lambda cell: "-".join(k.value for k in cell))
    def test_sent_headers_are_never_written(self, cell):
        sim = Simulator()
        net = Network(sim, intra_netem=Netem(delay=0.001, loss=0.1))
        a, b = net.add_node("a"), net.add_node("b")
        config = TABLE_I[cell]
        cha = DataChannel(sim, net, a, "b", 9, config)
        chb = DataChannel(sim, net, b, "a", 9, config)
        sent = []

        def tap(msg):
            for _layer, fields in msg.headers:
                sent.append((fields, dict(fields)))

        for ch in (cha, chb):
            ch.physical.bus.bind("FromAbove", tap, order=-1)
        got = []

        def receiver():
            while len(got) < 30:
                msg = yield chb.user_receive()
                if msg is None:
                    yield sim.timeout(0.001)
                else:
                    got.append(msg.payload)

        def sender():
            for i in range(40):
                yield cha.user_send(i)

        sim.spawn(receiver())
        sim.spawn(sender())
        sim.run(until=200.0)
        kinds = {fields["kind"] for fields, _ in sent}
        assert len(got) >= 30 and "DATA" in kinds
        assert kinds >= ({"DATA", "ACK"} if config.reliable else {"DATA"})
        assert all(fields == snapshot for fields, snapshot in sent)


class TestPhysicalClose:
    def make(self):
        sim = Simulator()
        net = Network(sim, intra_netem=Netem(delay=0.0))
        a, b = net.add_node("a"), net.add_node("b")
        phys = PhysicalProtocol(sim, net, b, "a", 7, ETHERNET)
        top = CompositeProtocol(sim, "top")
        ProtocolStack([top, phys])
        got = []
        top.bus.bind("FromBelow", lambda m: got.append((sim.now, m.payload)))
        return sim, net, phys, got

    @staticmethod
    def frame(i):
        return Packet("a", "b", ((), i), size_bytes=10, port=7)

    def test_busy_endpoint_serialises_then_close_drops_the_backlog(self):
        sim, net, phys, got = self.make()
        cost = ETHERNET.per_message_cost
        for i in range(4):  # all arrive at t=0; the endpoint is a FIFO server
            net.nodes["b"].deliver(self.frame(i))
        sim.run(until=1.5 * cost)
        assert got == [(cost, 0)]
        assert len(phys._rx_backlog) == 2  # frame 1 in service, 2 and 3 queued
        phys.close()
        sim.run(until=1.0)
        assert got == [(cost, 0)]  # nothing in service or queued gets out
        assert not phys._rx_backlog
        # ... and a packet arriving later is not taken either.
        net.nodes["b"].deliver(self.frame(9))
        sim.run(until=2.0)
        assert got == [(cost, 0)] and phys.stats_rx_frames == 2

    def test_backlog_is_served_back_to_back(self):
        sim, net, phys, got = self.make()
        cost = ETHERNET.per_message_cost
        for i in range(3):
            net.nodes["b"].deliver(self.frame(i))
        sim.run(until=1.0)
        assert [p for _, p in got] == [0, 1, 2]
        assert [t for t, _ in got] == [cost, cost + cost, cost + cost + cost]
        assert not phys._rx_busy

    def test_replacement_endpoint_takes_the_port_over(self):
        sim, net, phys, got = self.make()
        newer = PhysicalProtocol(sim, net, net.nodes["b"], "a", 7, ETHERNET)
        top = CompositeProtocol(sim, "top2")
        ProtocolStack([top, newer])
        got2 = []
        top.bus.bind("FromBelow", lambda m: got2.append(m.payload))
        phys.close()  # closing the old one must not detach the new one
        net.nodes["b"].deliver(self.frame(5))
        sim.run(until=1.0)
        assert got == [] and got2 == [5]


class TestMessageSizing:
    @pytest.mark.parametrize("payload", [
        None, np.zeros((6, 6)), np.zeros(5, dtype=np.float32),
        (3, np.zeros((4, 4))), ("PLANE", 17, np.zeros((4, 4))),
        (1.5, True, np.zeros(3)), ("é", np.zeros(2)),
        (np.int64(3), np.zeros(3)), ((1, 2), np.zeros(3)), (np.zeros(3), 1),
        (), [1, np.zeros(3)], {"k": np.zeros(3)}, b"bytes", "text", 12,
    ], ids=repr)
    def test_fast_path_agrees_with_the_walk(self, payload):
        assert Message(payload).payload_bytes == payload_nbytes(payload)

    def test_size_is_measured_once_and_inherited(self, monkeypatch):
        import repro.cactus.messages as messages

        calls = []
        real = messages.payload_nbytes
        monkeypatch.setattr(messages, "payload_nbytes",
                            lambda p: calls.append(p) or real(p))
        msg = Message({"k": [1, 2, 3]})  # no fast path: needs the walk
        shell = Message.framed(msg.payload, [("transport", {"kind": "DATA"})],
                               msg.payload_bytes)
        assert shell.size_bytes == msg.payload_bytes + Message.HEADER_BYTES
        assert shell.payload_bytes == msg.size_bytes
        assert sum(p is msg.payload for p in calls) == 1  # one walk in all
