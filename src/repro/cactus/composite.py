"""Composite protocols and the layered protocol stack.

"Cactus has two grains level.  Individual protocols, the so-called
composite protocols, are constructed from micro-protocols.  Composite
protocols are then layered on top of each other to create a protocol
stack.  Protocols developed using Cactus framework can reconfigure by
substituting micro-protocols or composite protocols."

:class:`CompositeProtocol`
    owns an :class:`~repro.cactus.events.EventBus` and a set of live
    micro-protocols; supports add / remove at run time.  ``remove`` is
    what session close (:meth:`CompositeProtocol.teardown`) and the data
    channel's micro-protocol substitution are built on.

:class:`ProtocolStack`
    an ordered list of composite protocols.  Messages move down with
    :meth:`ProtocolStack.send_down` and up with
    :meth:`ProtocolStack.deliver_up`; each hop raises the conventional
    events ``"FromAbove"`` / ``"FromBelow"`` on the next layer's bus
    (one call to the event's compiled callable),
    passing the *same* :class:`~repro.cactus.messages.Message` object
    (the zero-copy rule).  Layers are fixed once stacked: the data channel
    runs on one network type, so no composite protocol is ever
    substituted for another.
"""

from __future__ import annotations

from typing import Any, Optional

from ..simnet.kernel import Simulator
from .events import EventBus
from .messages import Message
from .microprotocol import MicroProtocol

__all__ = ["CompositeProtocol", "ProtocolStack", "CompositionError"]


class CompositionError(RuntimeError):
    """Invalid composite-protocol or stack manipulation."""


class CompositeProtocol:
    """A protocol built from micro-protocols over a shared event bus."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.bus = EventBus(sim, name=name)
        self._micros: dict[str, MicroProtocol] = {}
        self.stack: Optional["ProtocolStack"] = None
        # Neighbouring layers, relinked by the owning stack whenever its
        # layer list changes: a hop is an attribute read, not a scan.
        self._above: Optional["CompositeProtocol"] = None
        self._below: Optional["CompositeProtocol"] = None
        # Arbitrary shared state micro-protocols coordinate through
        # (Cactus's shared data section); e.g. the send window.
        self.shared: dict[str, Any] = {}

    # -- micro-protocol management ------------------------------------------

    def add_micro(self, micro: MicroProtocol) -> MicroProtocol:
        """Initialize ``micro`` into this composite."""
        if micro.name in self._micros:
            raise CompositionError(
                f"{self.name}: micro-protocol {micro.name!r} already present"
            )
        micro.init(self)
        self._micros[micro.name] = micro
        return micro

    def remove_micro(self, name: str) -> MicroProtocol:
        """Remove by name (the paper's added Cactus API operation)."""
        try:
            micro = self._micros.pop(name)
        except KeyError:
            raise CompositionError(
                f"{self.name}: no micro-protocol named {name!r}"
            ) from None
        micro.remove()
        return micro

    def micro(self, name: str) -> MicroProtocol:
        try:
            return self._micros[name]
        except KeyError:
            raise CompositionError(
                f"{self.name}: no micro-protocol named {name!r}"
            ) from None

    def has_micro(self, name: str) -> bool:
        return name in self._micros

    def teardown(self) -> None:
        """Remove every micro-protocol (session close)."""
        for name in list(self._micros):
            self.remove_micro(name)

    # -- stack plumbing ---------------------------------------------------------

    def send_down(self, msg: Message) -> None:
        """Hand ``msg`` to the layer below (or raise if bottom)."""
        below = self._below
        if below is None:
            raise self._no_neighbour("bottom")
        below.bus.compiled["FromAbove"](msg)

    def deliver_up(self, msg: Message) -> None:
        """Hand ``msg`` to the layer above (or raise if top)."""
        above = self._above
        if above is None:
            raise self._no_neighbour("top")
        above.bus.compiled["FromBelow"](msg)

    def _no_neighbour(self, edge: str) -> CompositionError:
        if self.stack is None:
            return CompositionError(f"{self.name} is not in a stack")
        return CompositionError(f"{self.name} is the {edge} layer")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CompositeProtocol {self.name} micros={sorted(self._micros)}>"


class ProtocolStack:
    """An ordered stack of composite protocols (index 0 = top)."""

    def __init__(self, layers: Optional[list[CompositeProtocol]] = None):
        self._layers: list[CompositeProtocol] = []
        for layer in layers or []:
            self.push_bottom(layer)

    def push_bottom(self, layer: CompositeProtocol) -> None:
        """Append a layer below the current bottom."""
        if layer.stack is not None:
            raise CompositionError(f"{layer.name} is already in a stack")
        layer.stack = self
        self._layers.append(layer)
        self._relink()

    def _relink(self) -> None:
        """Refresh every layer's cached neighbours from the layer list."""
        layers = self._layers
        for i, layer in enumerate(layers):
            layer._above = layers[i - 1] if i > 0 else None
            layer._below = layers[i + 1] if i + 1 < len(layers) else None

    def __repr__(self) -> str:  # pragma: no cover
        return "<Stack " + " / ".join(layer.name for layer in self._layers) + ">"
