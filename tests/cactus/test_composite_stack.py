"""Tests for micro-protocol lifecycle, composites and the layered stack."""

import pytest

from repro.cactus.composite import CompositeProtocol, CompositionError, ProtocolStack
from repro.cactus.messages import Message
from repro.cactus.microprotocol import MicroProtocol, MicroProtocolError
from repro.simnet.kernel import Simulator


class Recorder(MicroProtocol):
    """Test micro-protocol: records events and lifecycle calls."""

    def __init__(self, name="recorder", order=0):
        super().__init__()
        self.name = name
        self.order = order
        self.log = []
        self.removed = False

    def on_init(self):
        self.bind("Ping", self._on_ping, order=self.order)

    def on_remove(self):
        self.removed = True

    def _on_ping(self, value):
        self.log.append(value)


@pytest.fixture
def composite():
    return CompositeProtocol(Simulator(), "transport")


class TestMicroProtocolLifecycle:
    def test_init_binds_handlers(self, composite):
        rec = Recorder()
        composite.add_micro(rec)
        composite.bus.raise_event("Ping", 1)
        assert rec.log == [1]

    def test_remove_unbinds_everything(self, composite):
        rec = Recorder()
        composite.add_micro(rec)
        composite.remove_micro("recorder")
        composite.bus.raise_event("Ping", 1)
        assert rec.log == []
        assert rec.removed
        assert rec.composite is None

    def test_double_init_rejected(self, composite):
        rec = Recorder()
        composite.add_micro(rec)
        with pytest.raises(MicroProtocolError):
            rec.init(composite)

    def test_remove_before_init_rejected(self):
        with pytest.raises(MicroProtocolError):
            Recorder().remove()

    def test_bind_outside_init_rejected(self):
        rec = Recorder()
        with pytest.raises(MicroProtocolError):
            rec.bind("E", lambda: None)

    def test_duplicate_name_rejected(self, composite):
        composite.add_micro(Recorder())
        with pytest.raises(CompositionError):
            composite.add_micro(Recorder())

    def test_teardown_removes_all(self, composite):
        r1, r2 = Recorder("r1"), Recorder("r2")
        composite.add_micro(r1)
        composite.add_micro(r2)
        composite.teardown()
        assert r1.removed and r2.removed
        assert not composite.has_micro("r1") and not composite.has_micro("r2")

    def test_micro_lookup_errors(self, composite):
        with pytest.raises(CompositionError):
            composite.micro("ghost")
        with pytest.raises(CompositionError):
            composite.remove_micro("ghost")
        assert not composite.has_micro("ghost")


class TestProtocolStack:
    def make_stack(self):
        sim = Simulator()
        top = CompositeProtocol(sim, "socket")
        mid = CompositeProtocol(sim, "transport")
        bot = CompositeProtocol(sim, "physical")
        stack = ProtocolStack([top, mid, bot])
        return sim, stack, top, mid, bot

    def test_ordering(self):
        _, stack, top, mid, bot = self.make_stack()
        assert (top._above, top._below) == (None, mid)
        assert (mid._above, mid._below) == (top, bot)
        assert (bot._above, bot._below) == (mid, None)
        assert top.stack is mid.stack is bot.stack is stack

    def test_message_travels_down_by_reference(self):
        _, stack, top, mid, bot = self.make_stack()
        seen = []
        mid.bus.bind("FromAbove", lambda m: (seen.append(m), mid.send_down(m)))
        bot.bus.bind("FromAbove", lambda m: seen.append(m))
        msg = Message(b"payload")
        top.send_down(msg)
        assert len(seen) == 2
        assert seen[0] is msg and seen[1] is msg  # zero-copy: same object

    def test_message_travels_up_by_reference(self):
        _, stack, top, mid, bot = self.make_stack()
        seen = []
        mid.bus.bind("FromBelow", lambda m: (seen.append(m), mid.deliver_up(m)))
        top.bus.bind("FromBelow", lambda m: seen.append(m))
        msg = Message(b"payload")
        bot.deliver_up(msg)
        assert seen[0] is msg and seen[1] is msg

    def test_bottom_cannot_send_down(self):
        _, stack, _, _, bot = self.make_stack()
        with pytest.raises(CompositionError):
            bot.send_down(Message())

    def test_top_cannot_deliver_up(self):
        _, stack, top, _, _ = self.make_stack()
        with pytest.raises(CompositionError):
            top.deliver_up(Message())

    def test_unstacked_layer_rejects_plumbing(self):
        comp = CompositeProtocol(Simulator(), "lonely")
        with pytest.raises(CompositionError):
            comp.send_down(Message())

    def test_cannot_reuse_stacked_layer(self):
        sim, stack, top, mid, bot = self.make_stack()
        with pytest.raises(CompositionError):
            ProtocolStack([top])

    def test_shared_state_dict(self):
        comp = CompositeProtocol(Simulator(), "t")
        comp.shared["cwnd"] = 4
        assert comp.shared["cwnd"] == 4
