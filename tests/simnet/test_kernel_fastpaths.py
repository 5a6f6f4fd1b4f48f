"""DES kernel fast paths: absolute-time timeouts and channel direct handoff.

These must be invisible at the semantic level — same values, same
virtual times, same determinism — so the tests here pin the observable
behaviour.  Every timeout is a fresh object; the kernel recycles none.
"""

import pytest

from repro.simnet.kernel import (
    DeadlockError,
    Event,
    Simulator,
    Timeout,
)


class TestTimeout:
    def test_delay_is_validated_after_a_run(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)

        sim.spawn(proc())
        sim.run()
        with pytest.raises(ValueError):
            sim.timeout(-1.0)
        with pytest.raises(ValueError):
            sim.timeout(float("nan"))


class TestTimeoutAt:
    def test_fires_at_the_exact_absolute_time(self):
        sim = Simulator()
        fired = []

        def proc():
            yield sim.timeout(1 / 3)
            # The relative form would land one ulp early here.
            assert sim.now + (0.9 - sim.now) != 0.9
            fired.append((yield sim.timeout_at(0.9, "v")))
            fired.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert fired == ["v", 0.9]

    def test_orders_with_relative_timeouts_by_creation(self):
        sim = Simulator()
        order = []
        sim.timeout(2.0).callbacks.append(lambda ev: order.append("rel"))
        sim.timeout_at(2.0).callbacks.append(lambda ev: order.append("abs"))
        sim.run()
        assert order == ["rel", "abs"]

    @pytest.mark.parametrize("when", [0.5, float("nan"), -1.0])
    def test_rejects_past_and_nan(self, when):
        sim = Simulator()
        sim.run(until=1.0)
        with pytest.raises(ValueError):
            sim.timeout_at(when)
        assert sim.timeout_at(sim.now).delay == 0.0


class TestChannelDirectHandoff:
    def test_buffered_get_is_already_processed(self):
        sim = Simulator()
        ch = sim.channel()
        ch.put("x")
        ev = ch.get()
        assert ev.processed and ev.triggered and ev.ok
        assert ev.value == "x"

    def test_empty_get_still_waits(self):
        sim = Simulator()
        ch = sim.channel()
        ev = ch.get()
        assert not ev.triggered and not ev.processed

    def test_handoff_preserves_fifo_and_times(self):
        sim = Simulator()
        ch = sim.channel()
        out = []

        def producer():
            for i in range(4):
                ch.put(i)
            yield sim.timeout(2.0)
            ch.put(99)

        def consumer():
            yield sim.timeout(1.0)
            for _ in range(5):
                item = yield ch.get()
                out.append((sim.now, item))

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        # Buffered items all arrive at t=1 (synchronously, no queue
        # round-trips); the late one at its put time.
        assert out == [(1.0, 0), (1.0, 1), (1.0, 2), (1.0, 3), (2.0, 99)]

    def test_handoff_event_composes_with_any_of(self):
        sim = Simulator()
        ch = sim.channel()
        ch.put("ready")

        def proc():
            ev = ch.get()
            fired = yield sim.any_of([ev, sim.timeout(10.0)])
            return fired[ev]

        p = sim.spawn(proc())
        sim.run(until=11.0)
        assert p.value == "ready"
        assert sim.now == 11.0

    def test_cancel_get_on_handoff_event_is_noop(self):
        sim = Simulator()
        ch = sim.channel()
        ch.put(1)
        ch.put(2)
        ev = ch.get()
        ch.cancel_get(ev)  # already fired: must not resurrect the item
        assert ev.value == 1
        assert ch.get_nowait() == (True, 2)

    def test_triggering_handoff_event_again_is_error(self):
        sim = Simulator()
        ch = sim.channel()
        ch.put("x")
        ev = ch.get()
        with pytest.raises(Exception):
            ev.succeed("y")


class TestSemanticsUnchanged:
    def test_deadlock_still_detected(self):
        sim = Simulator()

        def stuck():
            yield Event(sim)

        sim.spawn(stuck())
        with pytest.raises(DeadlockError):
            sim.run()

    def test_determinism_with_fastpaths(self):
        def build():
            sim = Simulator()
            ch = sim.channel()
            trace = []

            def prod(tag, d):
                for i in range(5):
                    yield sim.timeout(d)
                    ch.put((tag, i))

            def cons():
                for _ in range(10):
                    item = yield ch.get()
                    trace.append((sim.now, item))

            sim.spawn(prod("a", 0.7))
            sim.spawn(prod("b", 1.1))
            sim.spawn(cons())
            sim.run()
            return trace

        assert build() == build()

    def test_timeout_subclass_identity_preserved(self):
        sim = Simulator()
        t = sim.timeout(1.0)
        assert type(t) is Timeout
        sim.run()
