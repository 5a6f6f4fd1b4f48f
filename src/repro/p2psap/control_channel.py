"""The P2PSAP control channel.

"The Control channel manages session opening and closure.  It captures
context information and (re)configures the data channel at opening or
operation time.  It is also responsible for coordination between peers
during reconfiguration process.  Note that we use the TCP/IP protocol to
exchange control messages since those messages must not be lost."

Here a session's configuration is decided once, when it opens: Table I
reads only the scheme and the connection kind, and neither changes
during a session's life.  The components:

:class:`~repro.p2psap.socket_api.P2PSAP`
    the controller: at session opening it reads the application's scheme
    (a socket option) and the peers' location (same cluster or not, from
    the network), looks the pair up in
    :data:`~repro.p2psap.rules.TABLE_I`, and the resulting
    :class:`~repro.p2psap.context.ChannelConfig` is fixed for the
    session's life.
:class:`ReliableControlLink`
    carries the inter-peer protocol (OPEN / OPEN_ACK / CLOSE), a
    retransmit-until-acked transport standing in for TCP.  It runs no
    process per message: a message's first attempt goes out from an
    URGENT event at the instant it is sent, and each retry from the
    callback of the previous attempt's RTO timeout.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from ..cactus.messages import payload_nbytes
from ..simnet.kernel import URGENT, Event, Simulator, Timeout
from ..simnet.network import Network, Node
from .session import CONTROL_PORT

__all__ = ["ReliableControlLink"]


class ReliableControlLink:
    """Retransmit-until-acked control messaging (the TCP stand-in).

    Control packets ride the same simulated links as data (so they see
    the same latency) on the reserved control port, but with their own
    acknowledgement/dedup layer so that "those messages must not be
    lost" holds even on impaired paths.

    Messages are numbered per destination.  The sender keeps the numbers
    not yet acknowledged (an ACK or giving up removes one), and every
    frame carries the lowest of them, so the receiver knows that nothing
    below it will be retransmitted.  The receiver keeps, per source, a
    low watermark plus the numbers dispatched above it.  Both ends hold
    what is in flight, not every message ever exchanged.
    """

    RTO = 0.5
    MAX_TRIES = 30

    def __init__(self, sim: Simulator, network: Network, node: Node,
                 dispatch: Callable[[str, dict], None],
                 port: int = CONTROL_PORT):
        self.sim = sim
        self.network = network
        self.node = node
        self.dispatch = dispatch
        self.port = port
        # Sender side, per destination: the next number, and the numbers
        # neither acknowledged nor given up on.
        self._next_seq: dict[str, int] = {}
        self._unacked: dict[str, set[int]] = {}
        # Receiver side, per source: everything below the watermark is
        # settled; the set holds the numbers dispatched above it.
        self._rx_low: dict[str, int] = {}
        self._rx_above: dict[str, set[int]] = {}
        self.stats_tx = 0
        self.stats_retries = 0
        self._closed = False
        node.attach(port, self._on_packet)

    def send(self, dst: str, body: dict) -> None:
        """Fire-and-forget reliable send (delivery order not guaranteed,
        matching independent TCP connections per message exchange).

        The first attempt goes out from an URGENT event at the current
        instant, so a message sent mid-event leaves after the sender's
        own statements, in send order; each retry runs from its RTO
        timeout's callback.  No process is spawned."""
        seq = self._next_seq.get(dst, 0)
        self._next_seq[dst] = seq + 1
        unacked = self._unacked.setdefault(dst, set())
        unacked.add(seq)
        packet = {"ctrl": "MSG", "seq": seq, "low": min(unacked),
                  "src": self.node.name, "body": body}
        size = 64 + payload_nbytes(body)
        self.stats_tx += 1
        Timeout(self.sim, 0.0, priority=URGENT).callbacks.append(
            partial(self._attempt, dst, packet, unacked, size, 0))

    def send_volatile(self, dst: str, body: dict) -> None:
        """Unacknowledged, undeduplicated one-shot send (e.g. pings,
        where a loss is itself the signal)."""
        self.network.send(
            self.node.name, dst,
            {"ctrl": "VOLATILE", "src": self.node.name, "body": body},
            64 + payload_nbytes(body), port=self.port,
        )

    def _attempt(self, dst: str, packet: dict, unacked: set[int], size: int,
                 attempt: int, _event: Event) -> None:
        """Send attempt ``attempt`` of ``packet`` unless it was acknowledged,
        and wait ``RTO * 1.5**min(attempt, 8)`` for the next one.  Runs
        as a callback: ``_event`` is the event that fired."""
        seq = packet["seq"]
        if seq not in unacked:
            return
        # A message sent before close() still goes out once (the CLOSEs
        # of P2PSAP.close, say); close() stops retransmissions.  Given up
        # (peer unreachable, or closed): session-level fault tolerance
        # deals with it.
        if attempt == self.MAX_TRIES or (attempt > 0 and self._closed):
            unacked.discard(seq)
            return
        if attempt > 0:
            self.stats_retries += 1
        self.network.send(self.node.name, dst, packet, size, port=self.port)
        self.sim.timeout(self.RTO * (1.5 ** min(attempt, 8))).callbacks.append(
            partial(self._attempt, dst, packet, unacked, size, attempt + 1))

    def _on_packet(self, pkt) -> None:
        frame = pkt.payload
        if frame.get("ctrl") == "ACK":
            unacked = self._unacked.get(pkt.src)
            if unacked is not None:
                unacked.discard(frame["seq"])
            return
        if frame.get("ctrl") == "VOLATILE":
            self.dispatch(frame["src"], frame["body"])
            return
        src, seq = frame["src"], frame["seq"]
        self.network.send(
            self.node.name, src,
            {"ctrl": "ACK", "seq": seq}, 64, port=self.port,
        )
        low = max(self._rx_low.get(src, 0), frame["low"])
        above = {n for n in self._rx_above.get(src, ()) if n >= low}
        fresh = seq >= low and seq not in above
        if fresh:
            above.add(seq)
            while low in above:
                above.remove(low)
                low += 1
        self._rx_low[src] = low
        self._rx_above[src] = above
        if fresh:
            self.dispatch(src, frame["body"])

    def close(self) -> None:
        self._closed = True
        self.node.detach(self.port, self._on_packet)
