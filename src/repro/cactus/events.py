"""Event system of the Cactus-like framework.

Cactus is "an event-based framework.  Each micro-protocol is structured
as a collection of event handlers, which are procedure-like segments of
code and are bound to events.  When an event occurs, all handlers bound
to that event are executed."

:class:`EventBus` implements that dispatch model, with:

- ordered handler execution (a handler binds with an ``order`` key;
  ties run in binding order);
- compiled dispatch: every ``bind``/``unbind`` rebuilds the event's one
  callable in :attr:`EventBus.compiled` — the handler itself when one is
  bound, a fan-out over the ordered handler tuple when several are, a
  no-op when none is — so raising an event is one call to that
  callable: ``bus.compiled["TxSegment"](msg)``.  The protocol stack's
  per-packet raise sites call it so; :meth:`EventBus.raise_event` is the
  by-name spelling (timers, cold paths, tests) and goes through the same
  table, so there is one dispatch mechanism;
- deferred calls at an absolute time (``call_at``), which per-session
  timers arm and re-arm through;
- re-entrancy safety: handlers may bind/unbind handlers and raise
  further events while a dispatch is in progress: a bind or unbind
  replaces the event's callable, never mutates the handler tuple a
  fan-out closed over, so a dispatch runs the handlers it started with;
- cancellable timers (a deferred call can be cancelled before firing),
  which Cactus exposes for round-trip timers.  A micro-protocol keeps at
  most one armed timer for all its deadlines and cancels it in its own
  ``on_remove``.

Handlers enter only through :meth:`EventBus.bind`, so what ``bind`` was
given is exactly what a raise calls (a tracer that wraps handlers at
bind time sees every call).  A raise is only the handler calls: it
returns nothing and counts nothing (handlers communicate through their
side effects and the composite's shared state).

The paper's first Cactus modification — concurrent handler execution —
maps here to handlers spawning kernel processes for long-running work
(see :meth:`EventBus.spawn`) instead of blocking the dispatch loop;
the dispatch itself stays deterministic.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Any, Callable, Generator

from ..simnet.kernel import Event as KernelEvent
from ..simnet.kernel import Process, Simulator

__all__ = ["EventBus", "Timer", "Handler"]

Handler = Callable[..., Any]


class Timer:
    """Handle for a deferred call that may be cancelled before it fires."""

    __slots__ = ("_fn", "_args", "_cancelled")

    def __init__(self, fn: Callable[..., Any], args: tuple):
        self._fn = fn
        self._args = args
        self._cancelled = False

    def cancel(self) -> None:
        """Prevent the deferred call from happening (idempotent)."""
        self._cancelled = True

    def _fire(self, _ev: KernelEvent) -> None:
        if not self._cancelled:
            self._fn(*self._args)


def _silent(*args: Any) -> None:
    """The compiled callable of an event with no handler bound."""


def _fan_out(handlers: tuple[Handler, ...]) -> Handler:
    """One callable running ``handlers`` in order, each with the raise's
    (positional) arguments."""
    def fan_out(*args: Any) -> None:
        for handler in handlers:
            handler(*args)
    return fan_out


class EventBus:
    """Named-event dispatcher with ordered handlers and timers."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        # event name -> list of (order, seq, handler), kept sorted
        self._handlers: dict[str, list[tuple[int, int, Handler]]] = {}
        #: Event name -> the one callable that runs its handlers, rebuilt
        #: on every bind/unbind of that event; call it to raise the event.
        #: An event never bound reads as the no-op.
        self.compiled: dict[str, Handler] = defaultdict(lambda: _silent)
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
        self._compile(event_name)

    def unbind(self, event_name: str, handler: Handler) -> None:
        """Remove one binding; unknown bindings raise (catches leaks)."""
        entries = self._handlers.get(event_name, [])
        for i, (_, _, h) in enumerate(entries):
            if h is handler:
                del entries[i]
                self._compile(event_name)
                return
        raise LookupError(f"handler not bound to {event_name!r}")

    def _compile(self, event_name: str) -> None:
        handlers = tuple(h for _, _, h in self._handlers[event_name])
        if not handlers:
            self.compiled[event_name] = _silent
        elif len(handlers) == 1:
            self.compiled[event_name] = handlers[0]
        else:
            self.compiled[event_name] = _fan_out(handlers)

    def handlers_for(self, event_name: str) -> list[Handler]:
        """Handlers currently bound, in execution order."""
        return [h for _, _, h in self._handlers.get(event_name, ())]

    # -- dispatch ------------------------------------------------------------

    def raise_event(self, event_name: str, /, *args: Any) -> None:
        """Execute all bound handlers now; their return values are dropped.

        The by-name spelling of ``self.compiled[event_name](*args)``:
        it runs the event's compiled callable.  Arguments are positional
        only, as at every raise site: a keyword argument is a
        ``TypeError``.
        """
        self.compiled[event_name](*args)

    def call_at(self, when: float, callback: Callable[..., Any], *args: Any) -> Timer:
        """Call ``callback(*args)`` at the absolute sim time ``when``.

        The entry point of per-session timers: a micro-protocol that keeps
        one timer for many deadlines arms it at the earliest one, computed
        when that deadline was set, and its callback raises the per-item
        events (``RetransmitCheck``, ``AppAckTimeout``) for what is due.
        ``when`` is used as is (no ``now + delay`` re-rounding).
        """
        timer = Timer(callback, args)
        self.sim.timeout_at(when).callbacks.append(timer._fire)
        return timer

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Run long-lived handler work as a concurrent kernel process.

        This is the analogue of the paper's concurrent-handler-execution
        modification: "Each thread has its own resources and its handler
        execution is independent of others."
        """
        return self.sim.spawn(gen, name=name or f"{self.name}-handler")
