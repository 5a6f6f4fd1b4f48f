"""Tests for the Cactus event bus and zero-copy messages."""

import numpy as np
import pytest

from repro.cactus.events import EventBus
from repro.cactus.messages import Message, payload_nbytes
from repro.simnet.kernel import Simulator


@pytest.fixture
def bus():
    return EventBus(Simulator(), name="test")


class TestEventBus:
    def test_handlers_run_in_order(self, bus):
        log = []
        bus.bind("E", lambda: log.append("second"), order=2)
        bus.bind("E", lambda: log.append("first"), order=1)
        bus.raise_event("E")
        assert log == ["first", "second"]

    def test_equal_order_runs_in_bind_order(self, bus):
        log = []
        for tag in "abc":
            bus.bind("E", lambda t=tag: log.append(t), order=0)
        bus.raise_event("E")
        assert log == ["a", "b", "c"]

    def test_args_forwarded_to_every_handler(self, bus):
        got = []
        bus.bind("sum", lambda a, b: got.append(a + b))
        bus.bind("sum", lambda a, b: got.append(a * b))
        assert bus.raise_event("sum", 3, 4) is None
        assert got == [7, 12]

    def test_raise_unbound_event_is_noop(self, bus):
        assert bus.raise_event("nothing") is None

    def test_double_bind_same_handler_rejected(self, bus):
        def h():
            return None

        bus.bind("E", h)
        with pytest.raises(ValueError):
            bus.bind("E", h)

    def test_unbind_unknown_raises(self, bus):
        with pytest.raises(LookupError):
            bus.unbind("E", lambda: None)

    def test_unbind_during_dispatch_is_safe(self, bus):
        log = []

        def first():
            if second in bus.handlers_for("E"):
                bus.unbind("E", second)
            log.append("first")

        def second():
            log.append("second")

        bus.bind("E", first, order=0)
        bus.bind("E", second, order=1)
        bus.raise_event("E")  # snapshot: second still runs this time
        assert log == ["first", "second"]
        bus.raise_event("E")
        assert log == ["first", "second", "first"]

    def test_non_callable_rejected(self, bus):
        with pytest.raises(TypeError):
            bus.bind("E", 42)

    def test_call_at_fires_at_the_time(self):
        sim = Simulator()
        bus = EventBus(sim)
        fired = []
        bus.call_at(2.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.5]

    def test_timer_cancel(self):
        sim = Simulator()
        bus = EventBus(sim)
        fired = []
        timer = bus.call_at(2.5, lambda: fired.append(sim.now))
        timer.cancel()
        sim.run()
        assert fired == []
        timer.cancel()  # idempotent

    def test_timer_args_forwarded(self):
        sim = Simulator()
        bus = EventBus(sim)
        got = []
        bus.call_at(1.0, lambda x, y: got.append((x, y)), 5, "v")
        sim.run()
        assert got == [(5, "v")]

    def test_cancelling_a_fired_timer_is_harmless(self):
        sim = Simulator()
        bus = EventBus(sim)
        got = []
        timer = bus.call_at(1.0, got.append, "once")
        sim.run()
        timer.cancel()
        sim.run()
        assert got == ["once"]

    def test_spawn_runs_concurrent_process(self):
        sim = Simulator()
        bus = EventBus(sim)

        def work():
            yield sim.timeout(1.0)
            return "done"

        p = bus.spawn(work())
        sim.run()
        assert p.value == "done"


class TestMessage:
    def test_payload_is_shared_not_copied(self):
        arr = np.zeros(100)
        msg = Message(arr)
        assert msg.payload is arr

    def test_header_push_pop_lifo(self):
        msg = Message(b"data")
        msg.push_header("transport", seq=1)
        msg.push_header("physical", frame=2)
        assert msg.pop_header("physical") == {"frame": 2}
        assert msg.pop_header("transport") == {"seq": 1}

    def test_pop_wrong_layer_raises(self):
        msg = Message()
        msg.push_header("transport", seq=1)
        with pytest.raises(LookupError, match="header stack mismatch"):
            msg.pop_header("physical")

    def test_pop_empty_raises(self):
        with pytest.raises(LookupError):
            Message().pop_header("any")

    def test_size_accounts_headers(self):
        msg = Message(np.zeros(10))  # 80 bytes
        base = msg.size_bytes
        msg.push_header("t", a=1)
        assert msg.size_bytes == base + Message.HEADER_BYTES

    def test_message_ids_unique(self):
        assert Message().message_id != Message().message_id


class TestPayloadSizing:
    @pytest.mark.parametrize(
        "payload,expected",
        [
            (None, 0),
            (b"12345", 5),
            ("abc", 3),
            (7, 8),
            (3.14, 8),
            (True, 8),
        ],
    )
    def test_scalar_sizes(self, payload, expected):
        assert payload_nbytes(payload) == expected

    def test_numpy_nbytes(self):
        assert payload_nbytes(np.zeros((4, 4))) == 128
        assert payload_nbytes(np.zeros(3, dtype=np.float32)) == 12

    def test_numpy_view_not_base(self):
        base = np.zeros((100, 100))
        view = base[3]
        assert payload_nbytes(view) == 800

    def test_containers_recursive(self):
        assert payload_nbytes((1, 2)) == 16 + 16
        assert payload_nbytes({"k": 1.0}) == 16 + 1 + 8

    def test_opaque_object_flat_estimate(self):
        class Thing:
            pass

        assert payload_nbytes(Thing()) == 64
