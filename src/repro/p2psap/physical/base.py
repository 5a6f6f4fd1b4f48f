"""Physical-layer composite protocols.

"We encompass the physical layer to support communications on different
networks, i.e. Ethernet, InfiniBand and Myrinet.  Each communication
type is carried out via a composite protocol."  A
:class:`PhysicalSpec` holds what sets one type apart here — framing
bytes and host cost; the link carries the bandwidth.

A :class:`PhysicalProtocol` is the bottom layer of a data channel's
stack at one endpoint.  Downwards it frames messages (header overhead)
and transmits them on the simulated link.  Upwards it is a FIFO server:
each packet costs ``per_message_cost`` of host-side framing/interrupt
work, a packet arriving while another is in service waits, and when its
service completes the rebuilt message goes up the stack.  There is no
receive process; rx framing runs inside DES callbacks.

A packet is served by one DES event.  The completion time of a FIFO
server is ``max(arrival, previous completion) + cost``, and on a FIFO
link both terms are known when the packet is sent, so the link hands
the packet over then (:meth:`PhysicalProtocol._fold`) and one event at
the completion does what the arrival event and the host-cost timeout
did — with the same float operations, hence the same timestamps.  The
second event per packet was never part of the model: no state the
packet's fate depends on was read between the two.  Where that would
stop being true — the node fails, the endpoint closes or loses its port,
a packet on the ordinary path lands first (the link got shorter or
started jittering, a packet was sent while the node was down) — the
folded packets that have not arrived yet go back to being ordinary
arrival events at their original place in time (:meth:`_unfold`),
served by :meth:`_on_packet` as before.

Messages cross the wire as ``(headers, payload)`` frames and nothing on
the way is copied.  The payload object is shared (zero-copy — the
simulation's analogue of DMA), and so are the header dicts: the frame
holds ``tuple(msg.headers)``, a snapshot of the header *stack*, so a
layer that pops a header pops it from its own list.  That needs no
copy of the dicts because nobody writes them after ``send_down``: the
transport frames each transmission in a fresh shell message it never
touches again, and the receiver only reads the fields.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque

from ...cactus.composite import CompositeProtocol
from ...cactus.messages import Message
from ...simnet.kernel import Event, Simulator
from ...simnet.network import Link, Network, Node, Packet

__all__ = ["PhysicalSpec", "PhysicalProtocol"]


@dataclasses.dataclass(frozen=True)
class PhysicalSpec:
    """Performance envelope of one network technology.

    ``header_bytes`` is added to every frame on the wire;
    ``per_message_cost`` models host-side framing/interrupt overhead in
    seconds.  Every fabric has some, so it must be positive: the receive
    server always serves a packet by an event at its completion.
    """

    name: str
    header_bytes: int = 18
    per_message_cost: float = 5e-6

    def __post_init__(self) -> None:
        if self.header_bytes < 0:
            raise ValueError("header_bytes must be non-negative")
        if not self.per_message_cost > 0:
            raise ValueError("per_message_cost must be positive")


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
        # Receive server.  Packets a link handed over at send time, in
        # FIFO order, each (arrival, seq, done, packet, link), served by
        # one event at ``done``; the server is free from _rx_free_at on.
        self._folded: deque[tuple] = deque()
        self._rx_free_at = -math.inf
        # Packets that took the ordinary arrival path: one in service
        # (_rx_busy), the rest waiting behind it and the folded ones.
        self._rx_busy = False
        self._rx_backlog: deque[Packet] = deque()
        self.bus.bind("FromAbove", self._on_from_above)
        local.attach(port, self._on_packet)

    # -- transmit ---------------------------------------------------------------

    def _on_from_above(self, msg: Message) -> None:
        if self._closed:
            return
        self.stats_tx_frames += 1
        wire = (tuple(msg.headers), msg.payload)
        size = msg.size_bytes + self.spec.header_bytes
        packet = Packet(self.local.name, self.remote_name, wire, size, self.port)
        self.network.link(self.local.name, self.remote_name).transmit(packet)

    # -- receive -------------------------------------------------------------------

    def _fold(self, link: Link, packet: Packet, arrival: float, seq: int) -> bool:
        """Take ``packet``, arriving at ``arrival``, into service now.

        Its service completes at ``max(arrival, free) + per_message_cost``
        — the instant the arrival event plus the host-cost timeout would
        have produced — and one event there does both.  Refused (False:
        it travels as an ordinary arrival) while a packet that took the
        ordinary path is in service or waiting, or if it would land
        before a packet already folded.  ``seq`` keys its arrival, should
        it have to be put back on that path (:meth:`_unfold`).
        """
        folded = self._folded
        if (self._closed or self._rx_busy or self._rx_backlog
                or (folded and arrival < folded[-1][0])):
            return False
        free = self._rx_free_at
        cost = self.spec.per_message_cost
        done = (free if free > arrival else arrival) + cost  # max(arrival, free)
        self._rx_free_at = done
        record = (arrival, seq, done, packet, link)
        folded.append(record)
        self.sim.timeout_at(done, record).callbacks.append(self._rx_served)
        return True

    def _unfold(self) -> None:
        """Hand folded packets that have not arrived yet back to their
        link as ordinary arrivals, at their original place in time."""
        folded = self._folded
        passed = self.sim._passed
        while folded:
            arrival, seq, _done, packet, link = folded[-1]
            if passed(arrival, seq):
                break
            folded.pop()
            link._arrive_at(arrival, seq, packet)
        self._rx_free_at = folded[-1][2] if folded else -math.inf

    def _rx_served(self, ev: Event) -> None:
        """A folded packet's service completes: arrival, framing, delivery."""
        record = ev._value  # processed: no pending check
        folded = self._folded
        if not folded or folded[0] is not record:
            return  # given back to its link, or dropped by close()
        folded.popleft()
        _arrival, _seq, _done, packet, link = record
        link._count_delivery(packet)
        self.deliver_up(self._rebuild(packet))  # may close us
        if not folded and self._rx_backlog:
            self._rx_start(self._rx_backlog.popleft())

    def _on_packet(self, packet: Packet) -> None:
        """A packet arrived: serve it, or queue it behind those in service."""
        if self._closed:
            return
        if self._folded:
            # Folded packets landing after this one queue behind it: they
            # take the arrival path again (a shorter or jittery link, a
            # packet sent while the node was down, another sender).
            self._unfold()
        if self._rx_busy or self._folded:
            self._rx_backlog.append(packet)
        else:
            self._rx_start(packet)

    def _rebuild(self, packet: Packet) -> Message:
        headers, payload = packet.payload
        self.stats_rx_frames += 1
        return Message.framed(payload, list(headers))

    def _rx_start(self, packet: Packet) -> None:
        """Rebuild the message and charge the host-side cost for it."""
        self._rx_busy = True
        self.sim.timeout(self.spec.per_message_cost,
                         self._rebuild(packet)).callbacks.append(self._rx_done)

    def _rx_done(self, ev: Event) -> None:
        if self._closed:
            return
        self.deliver_up(ev._value)  # may close us, emptying the backlog
        if self._rx_backlog:
            self._rx_start(self._rx_backlog.popleft())
        else:
            self._rx_busy = False

    def close(self) -> None:
        """Detach from the node; drop queued and any further traffic.

        Folded packets still on the wire land as ordinary arrivals (on
        whatever holds the port by then); those that had arrived are
        dropped like the backlog, counted as the arrival would have
        counted them.
        """
        if self._closed:
            return
        self._closed = True
        self._rx_backlog.clear()
        folded = self._folded
        if folded:
            self._unfold()
            for _arrival, _seq, _done, packet, link in folded:
                link._count_delivery(packet)
            if folded:  # the first one was in service
                self.stats_rx_frames += 1
            folded.clear()
        self.local.detach(self.port, self._on_packet)
