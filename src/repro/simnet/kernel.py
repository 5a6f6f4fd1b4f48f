"""Deterministic discrete-event simulation (DES) kernel with virtual time.

This module is the substrate that replaces the paper's NICTA testbed.  All
higher layers (the simulated network, the P2PSAP protocol stack, the P2PDC
environment and the distributed obstacle-problem solver) execute on top of
this kernel: computation costs and network delays advance a *virtual clock*
while the actual numerics run natively in NumPy.  Because event ordering is
a pure function of (event time, priority, sequence number), a simulation
with a fixed RNG seed is exactly reproducible.  (One deliberate exception
to the queue ordering: a :meth:`Channel.get` on a non-empty channel hands
the item over synchronously, already processed, without entering the event
queue — see :meth:`Channel.get`.  Determinism is unaffected.)  Every
timeout is a fresh object: the kernel recycles no processed events.

The programming model is generator-based cooperative processes, in the
style of SimPy:

>>> sim = Simulator()
>>> def proc(sim):
...     yield sim.timeout(1.5)
...     return "done"
>>> p = sim.spawn(proc(sim))
>>> sim.run()
>>> p.value
'done'
>>> sim.now
1.5

A process is any generator that yields :class:`Event` instances.  The
kernel resumes the process when the yielded event fires, sending the event
value back into the generator.  Processes are themselves events (they fire
when the generator returns), so processes can wait on each other.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Channel",
    "Interrupt",
    "SimulationError",
    "DeadlockError",
    "Simulator",
    "AnyOf",
    "AllOf",
    "AllOfOr",
]


class SimulationError(RuntimeError):
    """Base class for kernel-level errors."""


class DeadlockError(SimulationError):
    """Raised by :meth:`Simulator.run` when processes remain but no event
    is scheduled — every live process is waiting on something that can
    never fire."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed by the interrupter.
    Used by task execution to model a peer crash, and at close to stop
    long-running service processes (accept pump, pingers, the scenario
    injector).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event priorities: ties at the same virtual time are broken by priority
# first, then by creation order.  URGENT is for kernel-internal
# bookkeeping (process boot and termination wake-ups) so that user
# timeouts at the same instant observe a consistent state, and for work
# that stands where a process's boot event would (the control link's
# first send).
URGENT = 0
NORMAL = 1
LOW = 2

# The value of an event that has not been triggered yet.  The hot paths
# compare ``_value`` against it directly rather than through
# :attr:`Event.triggered`.
_PENDING = object()


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *pending*, may be *triggered* (given a value and
    scheduled), and becomes *processed* once its callbacks have run.
    Callbacks receive the event as their only argument.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        self._processed = False
        # A failed event whose error was delivered to at least one waiter
        # (or explicitly defused) does not take down the whole simulation.
        self._defused = False

    # -- state predicates ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the event queue."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (value, not exception)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is not yet triggered."""
        if self._value is _PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value`` at the current time."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        self._ok = True
        sim = self.sim
        heappush(sim._queue, (sim._now, priority, next(sim._seq), self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception; waiters will have it raised."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self.sim._schedule(self, priority)
        return self

    def defused(self) -> "Event":
        """Mark a failed event as handled so the kernel does not re-raise."""
        self._defused = True
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` units of virtual time in the future."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None, priority: int = NORMAL):
        if not delay >= 0:  # negative or NaN
            raise ValueError(f"negative timeout delay {delay!r}"
                             if delay < 0 else "timeout delay is NaN")
        _init_timeout(self, sim, delay, value)
        heappush(sim._queue, (sim._now + delay, priority, next(sim._seq), self))


def _init_timeout(t: Timeout, sim: "Simulator", delay: float, value: Any) -> None:
    """Set every slot of the triggered timeout ``t``: :meth:`Event.__init__`
    and :class:`Timeout`'s own in one call, as a timeout is made per
    packet and per timer.  Its one spelling, for ``Timeout.__init__`` and
    :meth:`Simulator._timeout_keyed`."""
    t.sim = sim
    t.callbacks = []
    t._value = value
    t._ok = True
    t._processed = False
    t._defused = False
    t.delay = delay


class Process(Event):
    """A running generator coroutine; fires when the generator returns.

    The value of the process-event is the generator's return value, or the
    uncaught exception if it failed.
    """

    __slots__ = ("gen", "name", "_target", "_alive")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise TypeError(f"Process requires a generator, got {type(gen).__name__}")
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._target: Optional[Event] = None
        self._alive = True
        # Kick the generator off at the current instant with URGENT
        # priority so that spawn order == first-step order.
        boot = Event(sim)
        boot._value = None
        boot._ok = True
        boot.callbacks.append(self._resume)
        sim._schedule(boot, URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not returned or raised."""
        return self._alive

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on (None if running)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        Interrupting a dead process is an error; interrupting a process
        twice before it resumes queues both interrupts in order.
        """
        if not self._alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        if self._target is not None and self._target.callbacks is not None:
            # Detach from the event being waited on; the event itself may
            # still fire later and must not resume us twice.
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        kick = Event(self.sim)
        kick._value = Interrupt(cause)
        kick._ok = False
        kick._defused = True
        kick.callbacks.append(self._resume)
        self.sim._schedule(kick, URGENT)

    # -- kernel internals --------------------------------------------------

    def _resume(self, event: Event) -> None:
        if not self._alive:
            # Stale wakeup: an interrupt kick and the original target can
            # fire in the same timestep; whichever arrives second finds
            # the process already finished and must not touch the
            # exhausted generator.
            if not event._ok:
                event._defused = True
            return
        while True:
            try:
                if event._ok:
                    target = self.gen.send(event._value)
                else:
                    event._defused = True
                    target = self.gen.throw(event._value)
            except StopIteration as stop:
                self._alive = False
                self._target = None
                self.succeed(stop.value, priority=URGENT)
                return
            except BaseException as err:
                # An unhandled Interrupt included: the process dies with
                # the interrupt as its failure value.
                self._alive = False
                self._target = None
                self.fail(err, priority=URGENT)
                return
            if not isinstance(target, Event):
                self._alive = False
                self._target = None
                self.fail(
                    SimulationError(
                        f"process {self.name!r} yielded {target!r}, "
                        "which is not an Event"
                    ),
                    priority=URGENT,
                )
                return
            if target.callbacks is None:
                # Already processed: deliver its value synchronously and
                # keep stepping the generator without a queue round-trip.
                event = target
                continue
            self._target = target
            target.callbacks.append(self._resume)
            return


class _Condition(Event):
    """Base for AnyOf/AllOf composite wait conditions."""

    __slots__ = ("events", "_n_fired")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = tuple(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("cannot mix events from different simulators")
        self._n_fired = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _collect(self) -> dict:
        # Only events whose callbacks have run count as "fired" here: a
        # Timeout is *triggered* the moment it is created, but it has not
        # yet happened on the timeline.
        return {
            ev: ev._value
            for ev in self.events
            if ev.callbacks is None and ev._ok
        }

    def _fire(self, event: Event) -> None:
        """Fire now, on ``event``'s outcome, unless already triggered."""
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            self.succeed(self._collect())

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires as soon as any constituent event fires."""

    __slots__ = ()

    _check = _Condition._fire


class AllOf(_Condition):
    """Fires once all constituent events have fired (or one failed)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if event._ok:
            self._n_fired += 1
            if self._n_fired < len(self.events):
                return
        self._fire(event)


class AllOfOr(AllOf):
    """``AnyOf([AllOf(events), alt])`` as one event, without the inner
    ``AllOf``'s extra DES event: fires once all of ``events`` have
    fired, or as soon as ``alt`` does.  :attr:`all_fired` keeps
    counting after that, so a waiter ``alt`` woke still sees an
    ``events`` set that completed before it resumed."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event], alt: Event):
        super().__init__(sim, events)
        if alt.callbacks is None:
            self._fire(alt)
        else:
            alt.callbacks.append(self._fire)

    @property
    def all_fired(self) -> bool:
        return self._n_fired == len(self.events)


class Channel:
    """Unbounded FIFO message channel between processes.

    ``put`` never blocks (the channel models a mailbox with unlimited
    capacity — bounded behaviour is implemented by the protocol layers,
    which is where the paper puts it too: the buffer-management
    micro-protocol).  ``get`` returns an event that fires when a message
    is available; messages are delivered in FIFO order to getters in FIFO
    order.
    """

    __slots__ = ("sim", "_items", "_getters", "name", "put_wakeups")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        #: How many puts landed on a waiting getter (each one is a queue
        #: round-trip).
        self.put_wakeups = 0
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest waiting getter, if any."""
        while self._getters:
            getter = self._getters.popleft()
            if getter._value is not _PENDING:  # cancelled/interrupted getter
                continue
            self.put_wakeups += 1
            self.sim.put_wakeups += 1
            # The wake goes through the queue, not inline: resuming the
            # getter here would run its code before every event already
            # scheduled for this instant (and before the putter's own
            # statements after ``put``), reordering same-instant events.
            getter.succeed(item)
            return
        self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item.

        When an item is already buffered the event comes back *already
        processed* — a put→get direct handoff.  A process yielding it is
        resumed synchronously by the kernel's processed-event fast path
        instead of taking a round-trip through the event queue, and
        composite waits (:class:`AnyOf`/:class:`AllOf`) count it as fired
        on construction.  Timeline semantics are unchanged: the value
        was deposited at or before the current instant either way.
        """
        ev = Event(self.sim)
        if self._items:
            ev._value = self._items.popleft()
            ev.callbacks = None
            ev._processed = True
        else:
            self._getters.append(ev)
        return ev

    def cancel_get(self, getter: Event) -> None:
        """Withdraw a pending get so it never steals a future item.

        Needed by any-of waits: an un-fired get left registered would
        consume the next put invisibly.  Cancelling a get that already
        fired (or was never registered) is a no-op.
        """
        try:
            self._getters.remove(getter)
        except ValueError:
            pass

    def get_nowait(self) -> tuple[bool, Any]:
        """Non-blocking receive: ``(True, item)`` or ``(False, None)``.

        This is the primitive beneath the *asynchronous receive* semantics
        of the Asynchronous micro-protocol ("return the control to
        application immediately with or without message").
        """
        if self._items:
            return True, self._items.popleft()
        return False, None

    def peek(self) -> tuple[bool, Any]:
        """Like :meth:`get_nowait` but leaves the item in the channel."""
        if self._items:
            return True, self._items[0]
        return False, None

    def clear(self) -> int:
        """Drop all queued items, returning how many were dropped."""
        n = len(self._items)
        self._items.clear()
        return n

    def drop_getters(self) -> int:
        """Withdraw every pending get, returning how many were dropped.

        The abrupt-death path: interrupting a process detaches it from
        the composite event it waits on, but a ``get`` it had registered
        stays in the queue and would silently eat the next ``put`` — a
        message meant for whoever takes over the channel (e.g. a
        restarted task on the same peer).  Dropping the getters keeps
        the channel's items flowing to live consumers only.
        """
        n = len(self._getters)
        self._getters.clear()
        return n


class Simulator:
    """The virtual-time event loop.

    Maintains a priority queue of ``(time, priority, seq, event)`` entries.
    ``seq`` is a monotone counter making the ordering total and therefore
    the whole simulation deterministic.
    """

    def __init__(self):
        self._now = 0.0
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._n_live_processes = 0
        # Priority and seq of the entry processed last: with _now, the
        # key every processed entry sorts at or below (see _passed).
        self._now_prio = URGENT
        self._now_seq = -1
        #: Observability counters (plain ints, exported to the telemetry
        #: registry by the harness after a run).  Strictly write-only
        #: from the loop's point of view: nothing reads them back into
        #: scheduling, so event order and the clock are untouched.
        self.events_processed = 0
        self.max_queue_depth = 0
        self.put_wakeups = 0

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time (seconds by convention).  Read-only: only
        the loop (:meth:`step`, :meth:`run`) moves it.  The protocol
        stack's per-packet paths read ``_now`` itself, which is no call."""
        return self._now

    # -- event constructors --------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event (a 'promise')."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """An event firing at the absolute time ``when``.

        ``when`` goes onto the queue unchanged — not re-derived as
        ``now + (when - now)``, which can round differently — so a time
        computed ahead of the instant it is needed (a receive service's
        completion, a retransmission deadline) fires exactly where it
        was computed.  A time in the past, or NaN, raises ``ValueError``.
        """
        if not when >= self._now:  # past or NaN
            raise ValueError(
                f"timeout_at({when!r}) is before now ({self._now!r})"
                if when < self._now else "timeout time is NaN")
        return self._timeout_keyed(when, next(self._seq), value)

    def _timeout_keyed(self, when: float, seq: int, value: Any) -> Timeout:
        """:meth:`timeout_at` with a ``seq`` taken from ``_seq`` earlier:
        the entry sorts exactly where one created back then would have."""
        t = Timeout.__new__(Timeout)
        _init_timeout(t, self, when - self._now, value)
        heappush(self._queue, (when, NORMAL, seq, t))
        return t

    def _passed(self, when: float, seq: int) -> bool:
        """Whether a NORMAL-priority entry keyed ``(when, seq)`` would
        already have been processed by now."""
        now = self._now
        return when < now or (
            when == now and (NORMAL, seq) < (self._now_prio, self._now_seq))

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new process from generator ``gen``."""
        proc = Process(self, gen, name=name)
        self._n_live_processes += 1
        proc.callbacks.append(self._process_ended)
        return proc

    def channel(self, name: str = "") -> Channel:
        """A fresh FIFO channel."""
        return Channel(self, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def _process_ended(self, event: Event) -> None:
        self._n_live_processes -= 1

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        heappush(self._queue, (self._now + delay, priority, next(self._seq), event))

    # -- execution -----------------------------------------------------------

    def step(self) -> None:
        """Process exactly one event."""
        queue = self._queue
        if not queue:
            raise SimulationError("step() on an empty event queue")
        depth = len(queue)
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        self.events_processed += 1
        when, prio, seq, event = heappop(queue)
        if when < self._now:  # pragma: no cover - defensive
            raise SimulationError("event scheduled in the past")
        self._now = when
        self._now_prio = prio
        self._now_seq = seq
        callbacks = event.callbacks
        event.callbacks = None
        for cb in callbacks:
            cb(event)
        event._processed = True
        if not event._ok and not event._defused:
            # Nobody waited on a failed event: surface the error.
            raise event._value

    def run_until(self, event: Event, horizon: float = math.inf) -> bool:
        """Step until ``event`` has been processed (True), or the next
        event lies beyond ``horizon`` (False, nothing consumed) — for
        callers whose queue never drains (ping loops, idle timers)."""
        queue = self._queue
        step = self.step
        while event.callbacks is not None:
            if queue and queue[0][0] > horizon:
                return False
            step()
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or virtual time reaches ``until``.

        Raises :class:`DeadlockError` if live processes remain when the
        queue drains and no ``until`` was given — that always indicates a
        bug (e.g. a synchronous receive that can never be satisfied), so
        failing loudly beats silently returning.
        """
        queue = self._queue
        step = self.step
        if until is not None:
            if until < self._now:
                raise ValueError(f"until={until} is in the past (now={self._now})")
            horizon = Timeout(self, until - self._now, priority=URGENT)
            while queue:
                if queue[0][3] is horizon:
                    # Stopped just before the horizon entry: nothing at
                    # ``until`` that sorts after it has happened yet.
                    _, self._now_prio, self._now_seq, _ = queue[0]
                    self._now = until
                    return
                step()
            return
        while queue:
            step()
        if self._n_live_processes > 0:
            raise DeadlockError(
                f"simulation ran dry with {self._n_live_processes} live "
                "process(es) still waiting"
            )

    def peek_time(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._queue[0][0] if self._queue else math.inf
