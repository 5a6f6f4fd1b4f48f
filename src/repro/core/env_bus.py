"""Per-node environment message bus.

P2PDC components on one node (topology client/server, task manager, task
executor, fault tolerance) share a single reliable environment link on
``ENV_PORT`` — one receiver per port, one dispatch point — and register
handlers by message kind.  This mirrors the paper's architecture where
the environment components sit side by side above one communication
component.
"""

from __future__ import annotations

from typing import Callable

from ..p2psap.control_channel import ReliableControlLink
from ..simnet.kernel import Simulator
from ..simnet.network import Network

__all__ = ["EnvBus", "ENV_PORT"]

#: Node port for P2PDC environment messages (P2PSAP's own control
#: channel owns port 0).
ENV_PORT = 1

Handler = Callable[[str, dict], None]


class EnvBus:
    """One node's environment messaging endpoint."""

    def __init__(self, sim: Simulator, network: Network, node_name: str):
        self.sim = sim
        self.network = network
        self.node = network.nodes[node_name]
        self._handlers: dict[str, Handler] = {}
        self.link = ReliableControlLink(
            sim, network, self.node, self._dispatch, port=ENV_PORT
        )
        self.stats_unhandled = 0

    def register(self, kind: str, handler: Handler) -> None:
        """Route messages of ``kind`` to ``handler(src, body)``."""
        if kind in self._handlers:
            raise ValueError(f"handler for {kind!r} already registered")
        self._handlers[kind] = handler

    def unregister(self, kind: str) -> None:
        self._handlers.pop(kind, None)

    def _dispatch(self, src: str, body: dict) -> None:
        handler = self._handlers.get(body.get("kind"))
        if handler is None:
            self.stats_unhandled += 1
            return
        handler(src, body)

    # -- sending ---------------------------------------------------------------

    def send(self, dst: str, body: dict) -> None:
        """Reliable send; local destinations short-circuit the network."""
        if dst == self.node.name:
            self._dispatch(dst, body)
        else:
            self.link.send(dst, body)

    def send_volatile(self, dst: str, body: dict) -> None:
        if dst == self.node.name:
            self._dispatch(dst, body)
        else:
            self.link.send_volatile(dst, body)

    def close(self) -> None:
        self.link.close()
