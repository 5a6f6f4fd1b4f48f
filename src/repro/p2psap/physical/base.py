"""Physical-layer composite protocols.

"We encompass the physical layer to support communications on different
networks, i.e. Ethernet, InfiniBand and Myrinet.  Each communication
type is carried out via a composite protocol.  The data channel can be
triggered between the different types of networks; one composite
protocol is then substituted to another."

A :class:`PhysicalProtocol` is the bottom layer of a data channel's
stack at one endpoint.  Downwards it frames messages (header overhead)
and transmits them on the simulated link.  Upwards it is event-driven:
the node calls :meth:`PhysicalProtocol._on_packet` per arriving packet
(:meth:`~repro.simnet.network.Node.attach`), one ``per_message_cost``
timeout models the host-side framing/interrupt work, and when it fires
the rebuilt message goes up the stack.  The endpoint is a FIFO server: a
packet arriving while another is in service waits in a backlog.  There
is no receive process; rx framing runs inside the DES callbacks.

Messages cross the wire as ``(headers, payload)`` snapshots: the payload
object itself is shared (zero-copy — the simulation's analogue of DMA),
while the tiny header dicts are copied once, at transmission, so that
endpoints never alias mutable state; the receiver only reads them.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Optional

from ...cactus.composite import CompositeProtocol
from ...cactus.messages import Message
from ...simnet.kernel import Event, Simulator
from ...simnet.network import Network, Node, Packet

__all__ = ["PhysicalSpec", "PhysicalProtocol"]


@dataclasses.dataclass(frozen=True)
class PhysicalSpec:
    """Performance envelope of one network technology.

    ``header_bytes`` is added to every frame on the wire;
    ``per_message_cost`` models host-side framing/interrupt overhead in
    seconds; ``bandwidth_bps``/``extra_delay`` optionally override the
    link defaults (InfiniBand and Myrinet are faster fabrics than the
    testbed's 100 Mbit Ethernet).
    """

    name: str
    header_bytes: int = 18
    per_message_cost: float = 5e-6
    bandwidth_bps: Optional[float] = None
    extra_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.header_bytes < 0 or self.per_message_cost < 0 or self.extra_delay < 0:
            raise ValueError("physical spec fields must be non-negative")


class PhysicalProtocol(CompositeProtocol):
    """Bottom layer: frames messages onto one simulated link pair."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        local: Node,
        remote_name: str,
        port: int,
        spec: PhysicalSpec,
    ):
        super().__init__(sim, f"phy-{spec.name}[{local.name}->{remote_name}:{port}]")
        self.network = network
        self.local = local
        self.remote_name = remote_name
        self.port = port
        self.spec = spec
        self.stats_tx_frames = 0
        self.stats_rx_frames = 0
        self._closed = False
        self._rx_busy = False  # a packet is in service; others wait here:
        self._rx_backlog: deque[Packet] = deque()
        self.bus.bind("FromAbove", self._on_from_above)
        if spec.bandwidth_bps is not None:
            # Fabric override: this endpoint's outgoing link runs at the
            # fabric's rate rather than the testbed default.
            self.network.link(local.name, remote_name).bandwidth_bps = spec.bandwidth_bps
        local.attach(port, self._on_packet)

    # -- transmit ---------------------------------------------------------------

    def _on_from_above(self, msg: Message) -> None:
        if self._closed:
            return
        self.stats_tx_frames += 1
        wire = (
            tuple([(layer, dict(fields)) for layer, fields in msg.headers]),
            msg.payload,
        )
        size = msg.size_bytes + self.spec.header_bytes
        packet = Packet(self.local.name, self.remote_name, wire, size, self.port)
        if self.spec.extra_delay:
            # Model slower media attach points by inflating propagation via
            # a deferred transmit.
            self.sim.timeout(self.spec.extra_delay, packet).callbacks.append(
                self._transmit_deferred
            )
        else:
            self.network.link(self.local.name, self.remote_name).transmit(packet)

    def _transmit_deferred(self, ev: Event) -> None:
        self.network.link(self.local.name, self.remote_name).transmit(ev.value)

    # -- receive -------------------------------------------------------------------

    def _on_packet(self, packet: Packet) -> None:
        """A packet arrived: serve it, or queue it behind the one in service."""
        if self._closed:
            return
        if self._rx_busy:
            self._rx_backlog.append(packet)
        else:
            self._rx_start(packet)

    def _rx_start(self, packet: Packet) -> None:
        """Rebuild the message and charge the host-side cost for it."""
        headers, payload = packet.payload
        msg = Message(payload)
        msg.headers = list(headers)
        self.stats_rx_frames += 1
        cost = self.spec.per_message_cost
        if cost:
            self._rx_busy = True
            self.sim.timeout(cost, msg).callbacks.append(self._rx_done)
        else:
            self.deliver_up(msg)

    def _rx_done(self, ev: Event) -> None:
        if self._closed:
            return
        self.deliver_up(ev.value)  # may close us, emptying the backlog
        if self._rx_backlog:
            self._rx_start(self._rx_backlog.popleft())
        else:
            self._rx_busy = False

    def close(self) -> None:
        """Detach from the node; drop queued and any further traffic."""
        if self._closed:
            return
        self._closed = True
        self._rx_backlog.clear()
        self.local.detach(self.port, self._on_packet)
