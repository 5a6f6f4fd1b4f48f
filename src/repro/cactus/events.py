"""Event system of the Cactus-like framework.

Cactus is "an event-based framework.  Each micro-protocol is structured
as a collection of event handlers, which are procedure-like segments of
code and are bound to events.  When an event occurs, all handlers bound
to that event are executed."

:class:`EventBus` implements that dispatch model, with:

- ordered handler execution (a handler binds with an ``order`` key;
  ties run in binding order);
- deferred events (``raise_later``) and deferred calls at an absolute
  time (``call_at``), which per-session timers re-arm through;
- re-entrancy safety: handlers may bind/unbind handlers and raise
  further events while a dispatch is in progress: each event keeps one
  immutable *compiled* handler tuple, rebuilt on ``bind``/``unbind``, and
  a dispatch iterates the tuple it started with — the snapshot is free;
- cancellable timers (a deferred event can be cancelled before firing),
  which Cactus exposes for round-trip timers.

A raise is only the handler calls: it returns nothing and counts
nothing (handlers communicate through their side effects and the
composite's shared state).

The paper's first Cactus modification — concurrent handler execution —
maps here to handlers spawning kernel processes for long-running work
(see :meth:`EventBus.spawn`) instead of blocking the dispatch loop;
the dispatch itself stays deterministic.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Generator, Optional

from ..simnet.kernel import Event as KernelEvent
from ..simnet.kernel import Process, Simulator

__all__ = ["EventBus", "Timer", "Handler"]

Handler = Callable[..., Any]


class Timer:
    """Handle for a deferred call — an event raise or a callback — that
    may be cancelled before it fires.

    A timer owned by a micro-protocol (:meth:`MicroProtocol.set_timer`)
    leaves its owner's set of armed timers when it fires or is cancelled.
    """

    __slots__ = ("_fn", "_args", "_kwargs", "_cancelled", "_fired", "_home")

    def __init__(self, fn: Callable[..., Any], args: tuple, kwargs: dict):
        self._fn = fn
        self._args = args
        self._kwargs = kwargs
        self._cancelled = False
        self._fired = False
        self._home: Optional[set] = None

    @property
    def active(self) -> bool:
        return not self._cancelled and not self._fired

    def cancel(self) -> None:
        """Prevent the deferred call from happening (idempotent)."""
        self._cancelled = True
        self._leave_home()

    def _leave_home(self) -> None:
        home = self._home
        if home is not None:
            home.discard(self)
            self._home = None

    def _fire(self, _ev: KernelEvent) -> None:
        if self._cancelled:
            return
        self._fired = True
        self._leave_home()
        self._fn(*self._args, **self._kwargs)


class EventBus:
    """Named-event dispatcher with ordered handlers and timers."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        # event name -> list of (order, seq, handler), kept sorted
        self._handlers: dict[str, list[tuple[int, int, Handler]]] = {}
        # event name -> handlers in execution order; an immutable tuple
        # replaced, never mutated, on bind/unbind.
        self._compiled: dict[str, tuple[Handler, ...]] = {}
        self._seq = itertools.count()

    # -- binding ---------------------------------------------------------

    def bind(self, event_name: str, handler: Handler, order: int = 0) -> None:
        """Bind ``handler`` to ``event_name``; lower ``order`` runs first."""
        if not callable(handler):
            raise TypeError(f"handler for {event_name!r} is not callable")
        entries = self._handlers.setdefault(event_name, [])
        if any(h is handler for _, _, h in entries):
            raise ValueError(
                f"handler {handler!r} already bound to {event_name!r}"
            )
        entries.append((order, next(self._seq), handler))
        entries.sort(key=lambda e: (e[0], e[1]))
        self._compiled[event_name] = tuple(h for _, _, h in entries)

    def unbind(self, event_name: str, handler: Handler) -> None:
        """Remove one binding; unknown bindings raise (catches leaks)."""
        entries = self._handlers.get(event_name, [])
        for i, (_, _, h) in enumerate(entries):
            if h is handler:
                del entries[i]
                self._compiled[event_name] = tuple(h for _, _, h in entries)
                return
        raise LookupError(f"handler not bound to {event_name!r}")

    def handlers_for(self, event_name: str) -> list[Handler]:
        """Handlers currently bound, in execution order."""
        return list(self._compiled.get(event_name, ()))

    def has_handlers(self, event_name: str) -> bool:
        return bool(self._compiled.get(event_name))

    # -- dispatch ------------------------------------------------------------

    def raise_event(self, event_name: str, *args: Any, **kwargs: Any) -> None:
        """Execute all bound handlers now; their return values are dropped.

        Runs the handler tuple compiled at the last ``bind``/``unbind``;
        handlers may rebind without affecting the in-flight dispatch.
        """
        if kwargs:
            for handler in self._compiled.get(event_name, ()):
                handler(*args, **kwargs)
        else:  # positional-only: the protocol stack's every raise
            for handler in self._compiled.get(event_name, ()):
                handler(*args)

    def raise_later(
        self, delay: float, event_name: str, *args: Any, **kwargs: Any
    ) -> Timer:
        """Schedule ``event_name`` to be raised after ``delay`` sim-seconds."""
        timer = Timer(self.raise_event, (event_name, *args), kwargs)
        self.sim.timeout(delay).callbacks.append(timer._fire)
        return timer

    def call_at(self, when: float, callback: Callable[..., Any], *args: Any) -> Timer:
        """Call ``callback(*args)`` at the absolute sim time ``when``.

        The entry point of per-session timers: a micro-protocol that keeps
        one timer for many deadlines arms it at the earliest one, computed
        when that deadline was set, and its callback raises the per-item
        events (``RetransmitCheck``, ``AppAckTimeout``) for what is due.
        ``when`` is used as is (no ``now + delay`` re-rounding).
        """
        timer = Timer(callback, args, {})
        self.sim.timeout_at(when).callbacks.append(timer._fire)
        return timer

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Run long-lived handler work as a concurrent kernel process.

        This is the analogue of the paper's concurrent-handler-execution
        modification: "Each thread has its own resources and its handler
        execution is independent of others."
        """
        return self.sim.spawn(gen, name=name or f"{self.name}-handler")
