"""Micro-protocol base class.

"A micro-protocol implements merely a functionality of a given protocol
(e.g. congestion control and reliability).  A protocol results from the
composition of a given set of micro-protocols."

The paper's third Cactus modification adds an explicit *remove*
operation: "each micro-protocol must have a remove function, which
unbinds all its handlers and releases its own resources."

:class:`MicroProtocol` provides exactly that contract.  Subclasses bind
handlers through :meth:`bind` (which records the binding) and override
:meth:`on_init` / :meth:`on_remove` for resource setup/teardown (an
armed timer is such a resource: ``on_remove`` cancels it);
:meth:`remove` unbinds everything automatically, then calls
``on_remove()``.  Session close removes every micro-protocol this way
(:meth:`~repro.cactus.composite.CompositeProtocol.teardown`), and
:meth:`~repro.p2psap.data_channel.DataChannel.reconfigure` swaps
micro-protocols in place by calling ``remove()`` on the old one and
``init()`` on the new.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .events import Handler

if TYPE_CHECKING:  # pragma: no cover
    from .composite import CompositeProtocol

__all__ = ["MicroProtocol", "MicroProtocolError"]


class MicroProtocolError(RuntimeError):
    """Lifecycle misuse (double init, remove before init, ...)."""


class MicroProtocol:
    """Base class for all micro-protocols.

    Lifecycle: ``__init__`` (pure construction, no side effects) →
    ``init(composite)`` (bind handlers, allocate resources) →
    ``remove()`` (unbind all handlers, release resources).  A subclass
    that arms a timer (:meth:`~repro.cactus.events.EventBus.call_at`)
    cancels it in its ``on_remove``.
    """

    #: Human-readable protocol name; subclasses override.
    name = "micro"

    def __init__(self) -> None:
        self.composite: Optional["CompositeProtocol"] = None
        self._bindings: list[tuple[str, Handler]] = []
        self._initialized = False

    # -- lifecycle ---------------------------------------------------------

    def init(self, composite: "CompositeProtocol") -> None:
        """Attach to ``composite`` and bind handlers via :meth:`on_init`."""
        if self._initialized:
            raise MicroProtocolError(f"{self.name} initialized twice")
        self.composite = composite
        self._initialized = True
        self.on_init()

    def remove(self) -> None:
        """Unbind all handlers, then release resources (:meth:`on_remove`)."""
        if not self._initialized:
            raise MicroProtocolError(f"{self.name} removed before init")
        for event_name, handler in self._bindings:
            self.composite.bus.unbind(event_name, handler)
        self._bindings.clear()
        self.on_remove()
        self._initialized = False
        self.composite = None

    # -- subclass hooks -----------------------------------------------------

    def on_init(self) -> None:
        """Bind handlers and allocate resources.  Subclasses override."""

    def on_remove(self) -> None:
        """Release subclass-specific resources, timers included.
        Subclasses may override."""

    # -- helpers -------------------------------------------------------------

    def bind(self, event_name: str, handler: Handler, order: int = 0) -> None:
        """Bind a handler and record it for automatic removal."""
        if not self._initialized:
            raise MicroProtocolError(f"{self.name}: bind() outside init")
        self.composite.bus.bind(event_name, handler, order=order)
        self._bindings.append((event_name, handler))

    def __repr__(self) -> str:  # pragma: no cover
        state = "live" if self._initialized else "detached"
        return f"<{type(self).__name__} {self.name!r} {state}>"
