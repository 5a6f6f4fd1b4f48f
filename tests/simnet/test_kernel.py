"""Unit tests for the DES kernel: events, processes, channels, conditions."""

import math

import pytest

from repro.simnet.kernel import (
    AllOfOr,
    DeadlockError,
    Interrupt,
    SimulationError,
    Simulator,
)


class TestTimeout:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_clock_is_read_only(self):
        sim = Simulator()
        with pytest.raises(AttributeError):
            sim.now = 1.0
        assert sim.now == 0.0

    def test_single_timeout_advances_clock(self):
        sim = Simulator()
        sim.timeout(2.5)
        sim.run()
        assert sim.now == 2.5

    def test_timeout_carries_value(self):
        sim = Simulator()
        seen = []

        def proc():
            v = yield sim.timeout(1.0, value="payload")
            seen.append(v)

        sim.spawn(proc())
        sim.run()
        assert seen == ["payload"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(float("nan"))

    def test_timeouts_fire_in_time_order(self):
        sim = Simulator()
        order = []

        def proc(delay, tag):
            yield sim.timeout(delay)
            order.append(tag)

        sim.spawn(proc(3.0, "c"))
        sim.spawn(proc(1.0, "a"))
        sim.spawn(proc(2.0, "b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_equal_times_fire_in_creation_order(self):
        sim = Simulator()
        order = []

        def proc(tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in "abcde":
            sim.spawn(proc(tag))
        sim.run()
        assert order == list("abcde")


class TestProcess:
    def test_return_value_becomes_event_value(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            return 42

        p = sim.spawn(proc())
        sim.run()
        assert p.value == 42
        assert not p.is_alive

    def test_process_can_wait_on_process(self):
        sim = Simulator()

        def child():
            yield sim.timeout(2.0)
            return "child-result"

        def parent():
            result = yield sim.spawn(child())
            return ("got", result)

        p = sim.spawn(parent())
        sim.run()
        assert p.value == ("got", "child-result")
        assert sim.now == 2.0

    def test_uncaught_exception_propagates_to_waiter(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        def parent():
            try:
                yield sim.spawn(bad())
            except ValueError as e:
                return f"caught {e}"

        p = sim.spawn(parent())
        sim.run()
        assert p.value == "caught boom"

    def test_unwaited_failure_raises_from_run(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("unhandled")

        sim.spawn(bad())
        with pytest.raises(ValueError, match="unhandled"):
            sim.run()

    def test_yielding_non_event_fails_process(self):
        sim = Simulator()

        def bad():
            yield 123

        def parent():
            with pytest.raises(SimulationError, match="not an Event"):
                yield sim.spawn(bad())
            return "ok"

        p = sim.spawn(parent())
        sim.run()
        assert p.value == "ok"

    def test_interrupt_wakes_blocked_process(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
                log.append("slept full")
            except Interrupt as i:
                log.append(("interrupted", i.cause, sim.now))

        def interrupter(victim):
            yield sim.timeout(1.0)
            victim.interrupt(cause="wake up")

        victim = sim.spawn(sleeper())
        sim.spawn(interrupter(victim))
        sim.run()
        assert log == [("interrupted", "wake up", 1.0)]

    def test_interrupt_dead_process_is_error(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(0.1)

        p = sim.spawn(quick())
        sim.run()
        with pytest.raises(SimulationError, match="dead process"):
            p.interrupt()

    def test_unhandled_interrupt_kills_process(self):
        sim = Simulator()

        def sleeper():
            yield sim.timeout(100.0)

        def killer(victim):
            yield sim.timeout(1.0)
            victim.interrupt()

        def parent():
            victim = sim.spawn(sleeper())
            sim.spawn(killer(victim))
            with pytest.raises(Interrupt):
                yield victim
            return "done"

        p = sim.spawn(parent())
        sim.run()
        assert p.value == "done"

    def test_target_is_the_event_being_waited_on(self):
        sim = Simulator()
        gate = sim.event()
        seen = []

        def waiter():
            yield gate

        p = sim.spawn(waiter())

        def observer():
            yield sim.timeout(1.0)
            seen.append(p.target)
            gate.succeed()

        sim.spawn(observer())
        sim.run()
        assert seen == [gate]
        assert not p.is_alive

    def test_spawn_rejects_non_generator(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.spawn(lambda: None)  # type: ignore[arg-type]


class TestEvent:
    def test_succeed_delivers_value(self):
        sim = Simulator()
        ev = sim.event()

        def waiter():
            v = yield ev
            return v

        def trigger():
            yield sim.timeout(1.0)
            ev.succeed("hello")

        p = sim.spawn(waiter())
        sim.spawn(trigger())
        sim.run()
        assert p.value == "hello"

    def test_double_trigger_is_error(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_after_trigger_is_error(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError, match="already been triggered"):
            ev.fail(RuntimeError("late"))

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")  # type: ignore[arg-type]

    def test_value_before_trigger_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_waiting_on_processed_event_returns_immediately(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("early")
        sim.run()

        def late_waiter():
            v = yield ev
            return (v, sim.now)

        p = sim.spawn(late_waiter())
        sim.run()
        assert p.value == ("early", 0.0)


class TestConditions:
    def test_empty_event_set_fires_immediately(self):
        sim = Simulator()

        def proc():
            cond = AllOfOr(sim, [], sim.event())
            assert cond.all_fired
            value = yield cond
            return (sim.now, value)

        p = sim.spawn(proc())
        sim.run()
        assert p.value == (0.0, None)

    @pytest.mark.parametrize("alt_fails", [False, True],
                             ids=["constituent", "alt"])
    def test_a_failure_fails_the_condition(self, alt_fails):
        sim = Simulator()
        doomed = sim.event()

        def proc():
            events = [sim.timeout(5.0)]
            try:
                if alt_fails:
                    yield AllOfOr(sim, events, doomed)
                else:
                    yield AllOfOr(sim, [doomed, *events], sim.event())
            except KeyError as err:
                return (sim.now, err.args[0])
            return None

        def saboteur():
            yield sim.timeout(1.0)
            doomed.fail(KeyError("lost"))

        p = sim.spawn(proc())
        sim.spawn(saboteur())
        sim.run()
        assert p.value == (1.0, "lost")

    def test_all_of_or_fires_when_all_fire(self):
        sim = Simulator()
        alt = sim.event()

        def proc():
            ts = [sim.timeout(d, value=d) for d in (3.0, 1.0)]
            cond = AllOfOr(sim, ts, alt)
            result = yield cond
            return (sim.now, result, cond.all_fired)

        p = sim.spawn(proc())
        sim.run()
        assert p.value == (3.0, None, True)
        assert not alt.triggered

    def test_all_of_or_fires_on_alt_first_and_keeps_counting(self):
        sim = Simulator()
        ch = sim.channel()
        first, last = sim.timeout(1.0, value="a"), sim.timeout(5.0, value="b")
        cond = AllOfOr(sim, [first, last], ch.get())
        seen = []

        def proc():
            result = yield cond
            seen.append((sim.now, result, cond.all_fired))
            yield sim.timeout(10.0)
            seen.append(cond.all_fired)

        def putter():
            yield sim.timeout(2.0)
            ch.put("msg")

        sim.spawn(proc())
        sim.spawn(putter())
        sim.run()
        # Fired by the get at t=2, with one constituent fired by then;
        # the constituent at t=5 still counts towards all_fired.
        assert seen == [(2.0, None, False), True]

    def test_all_of_or_counts_constituents_processed_before_it(self):
        sim = Simulator()
        ch = sim.channel()
        ch.put("buffered")
        done = sim.timeout(1.0, value="x")
        sim.run()  # ``done`` is processed before the condition exists
        pending = sim.timeout(1.0, value="y")

        def proc():
            cond = AllOfOr(sim, [done, pending], sim.event())
            assert cond.all_fired is False
            yield cond
            return (sim.now, cond.all_fired)

        p = sim.spawn(proc())
        sim.run()
        assert p.value == (2.0, True)

        def handoff():
            # Everything already processed, the alt a direct handoff:
            # the condition is triggered on construction.
            cond = AllOfOr(sim, [done], ch.get())
            assert cond.triggered and cond.all_fired
            result = yield cond
            return (sim.now, result)

        p = sim.spawn(handoff())
        sim.run()
        assert p.value == (2.0, None)

    def test_conditions_refuse_events_of_another_simulator(self):
        sim, other = Simulator(), Simulator()
        with pytest.raises(SimulationError, match="different simulators"):
            AllOfOr(sim, [sim.timeout(1.0), other.timeout(1.0)], sim.event())


class TestChannel:
    def test_fifo_order(self):
        sim = Simulator()
        ch = sim.channel()
        out = []

        def producer():
            for i in range(5):
                yield sim.timeout(1.0)
                ch.put(i)

        def consumer():
            for _ in range(5):
                item = yield ch.get()
                out.append((sim.now, item))

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert [i for _, i in out] == [0, 1, 2, 3, 4]
        assert [t for t, _ in out] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_put_before_get(self):
        sim = Simulator()
        ch = sim.channel()
        ch.put("x")
        assert len(ch) == 1

        def consumer():
            item = yield ch.get()
            return item

        p = sim.spawn(consumer())
        sim.run()
        assert p.value == "x"

    def test_get_nowait(self):
        sim = Simulator()
        ch = sim.channel()
        assert ch.get_nowait() == (False, None)
        ch.put(7)
        assert ch.get_nowait() == (True, 7)
        assert ch.get_nowait() == (False, None)

    def test_peek_does_not_consume(self):
        sim = Simulator()
        ch = sim.channel()
        ch.put("a")
        assert ch.peek() == (True, "a")
        assert len(ch) == 1

    def test_clear(self):
        sim = Simulator()
        ch = sim.channel()
        for i in range(3):
            ch.put(i)
        assert ch.clear() == 3
        assert len(ch) == 0

    def test_multiple_getters_fifo(self):
        sim = Simulator()
        ch = sim.channel()
        got = {}

        def consumer(tag):
            item = yield ch.get()
            got[tag] = item

        sim.spawn(consumer("first"))
        sim.spawn(consumer("second"))

        def producer():
            yield sim.timeout(1.0)
            ch.put("A")
            ch.put("B")

        sim.spawn(producer())
        sim.run()
        assert got == {"first": "A", "second": "B"}

    def test_wakeup_counter_only_counts_waiting_getters(self):
        sim = Simulator()
        ch = sim.channel()
        ch.put("buffered")  # no getter waiting: not a wakeup
        assert ch.put_wakeups == 0
        ok, item = ch.get_nowait()
        assert ok and item == "buffered"

    def test_put_wakes_getter_through_the_queue(self):
        """A put to a waiting getter resumes it after every event already
        scheduled for the same instant and after the putter's own
        statements following ``put``."""
        sim = Simulator()
        ch = sim.channel()
        log = []

        def consumer():
            item = yield ch.get()
            log.append(("got", item))

        def bystander():
            yield sim.timeout(1.0)
            log.append(("bystander",))

        def producer():
            yield sim.timeout(1.0)
            ch.put("x")
            log.append(("put-returned",))

        sim.spawn(consumer())
        sim.spawn(bystander())
        sim.spawn(producer())
        sim.run()
        assert log == [("bystander",), ("put-returned",), ("got", "x")]
        assert ch.put_wakeups == sim.put_wakeups == 1

    def test_every_wakeup_is_one_queue_round_trip(self):
        """A put that lands on a waiting getter costs exactly one
        processed event: the getter's wake, taken from the queue."""
        sim = Simulator()
        ch = sim.channel()
        got = []

        def consumer():
            while True:
                got.append((yield ch.get()))

        def drain():
            # The consumer never ends, so run() would report a deadlock.
            while sim.peek_time() != math.inf:
                sim.step()

        sim.spawn(consumer())
        drain()
        for i in range(8):
            before = sim.events_processed
            ch.put(i)
            drain()
            assert sim.events_processed - before == 1
        assert got == list(range(8))
        assert ch.put_wakeups == sim.put_wakeups == 8

    def test_pipeline_delivers_each_item_at_its_put_instant(self):
        sim = Simulator()
        ch = sim.channel()
        log = []

        def consumer():
            for _ in range(8):
                item = yield ch.get()
                log.append((sim.now, item))

        def producer():
            for i in range(8):
                yield sim.timeout(0.5)
                ch.put(i)

        sim.spawn(consumer())
        sim.spawn(producer())
        sim.run()
        assert log == [(0.5 * (i + 1), i) for i in range(8)]
        assert ch.put_wakeups == 8


class TestRun:
    def test_run_until_stops_clock(self):
        sim = Simulator()

        def ticker():
            while True:
                yield sim.timeout(1.0)

        sim.spawn(ticker())
        sim.run(until=10.5)
        assert sim.now == 10.5

    def test_run_until_past_is_error(self):
        sim = Simulator()
        sim.timeout(5.0)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    def test_deadlock_detection(self):
        sim = Simulator()

        def stuck():
            yield sim.event()  # never triggered

        sim.spawn(stuck())
        with pytest.raises(DeadlockError):
            sim.run()

    def test_step_on_empty_queue_is_error(self):
        with pytest.raises(SimulationError):
            Simulator().step()

    def test_determinism_same_seed_same_trace(self):
        def build_and_run():
            sim = Simulator()
            trace = []

            def worker(tag, delay):
                for i in range(3):
                    yield sim.timeout(delay)
                    trace.append((sim.now, tag, i))

            for tag, d in [("a", 1.3), ("b", 0.7), ("c", 1.0)]:
                sim.spawn(worker(tag, d))
            sim.run()
            return trace

        assert build_and_run() == build_and_run()
