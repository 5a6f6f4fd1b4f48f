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
    destination's retransmission timer.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from typing import Callable, Optional

from ..cactus.messages import payload_nbytes
from ..simnet.kernel import URGENT, Event, Simulator, Timeout
from ..simnet.network import Link, Network, Node, Packet
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

    Retransmission deadlines share one timer per destination, as
    :class:`~repro.p2psap.microprotocols.reliability.Reliability` keeps
    one per session.  Each deadline is keyed by a ``seq`` drawn from the
    simulator where a per-attempt timeout used to be made, and the timer
    is armed at the earliest live deadline with that key
    (``Simulator._timeout_keyed``), so a retransmission goes out exactly
    where its own timeout would have fired.  An ACK for the message the
    timer is armed for takes the timer off the queue
    (``Simulator._withdraw``) and arms it at the next live deadline, if
    any: an acknowledged message costs no DES event at its deadline.
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
        # Per destination (or source, for ACKs): the link, looked up on
        # the first packet and held.  Per destination: the deadline the
        # timer is armed at, (when, key, packet, size, attempt, timer),
        # or None; and the later deadlines, a heap of (when, key,
        # packet, size, attempt), stale once their message is
        # acknowledged.  One deadline per unacknowledged message.
        self._links: dict[str, Link] = {}
        self._armed: dict[str, Optional[tuple]] = {}
        self._waiting: dict[str, list[tuple]] = {}
        self.stats_tx = 0
        self.stats_retries = 0
        self._closed = False
        node.attach(port, self._on_packet)

    def send(self, dst: str, body: dict) -> None:
        """Fire-and-forget reliable send (delivery order not guaranteed,
        matching independent TCP connections per message exchange).

        The first attempt goes out from an URGENT event at the current
        instant, so a message sent mid-event leaves after the sender's
        own statements, in send order; each retry runs from the
        destination's retransmission timer.  No process is spawned."""
        seq = self._next_seq.get(dst, 0)
        self._next_seq[dst] = seq + 1
        unacked = self._unacked.get(dst)
        if unacked is None:
            unacked = self._unacked[dst] = set()
            self._armed[dst] = None
            self._waiting[dst] = []
        unacked.add(seq)
        packet = {"ctrl": "MSG", "seq": seq, "low": min(unacked),
                  "src": self.node.name, "body": body}
        size = 64 + payload_nbytes(body)
        self.stats_tx += 1
        Timeout(self.sim, 0.0, priority=URGENT).callbacks.append(
            partial(self._attempt, dst, packet, size, 0))

    def send_volatile(self, dst: str, body: dict) -> None:
        """Unacknowledged, undeduplicated one-shot send (e.g. pings,
        where a loss is itself the signal)."""
        self.network.send(
            self.node.name, dst,
            {"ctrl": "VOLATILE", "src": self.node.name, "body": body},
            64 + payload_nbytes(body), port=self.port,
        )

    def _attempt(self, dst: str, packet: dict, size: int, attempt: int,
                 _event: Optional[Event] = None) -> None:
        """Send attempt ``attempt`` of ``packet`` unless it was acknowledged,
        and set its next deadline ``RTO * 1.5**min(attempt, 8)`` from now.
        The first attempt runs as the callback of :meth:`send`'s URGENT
        event (``_event``), the others from :meth:`_on_timer`."""
        seq = packet["seq"]
        unacked = self._unacked[dst]
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
        link = self._links.get(dst)
        if link is None:
            link = self._links[dst] = self.network.link(self.node.name, dst)
        link.transmit(Packet(self.node.name, dst, packet, size, self.port))
        # Keyed as the per-attempt Timeout made here used to be: its
        # time, and a seq drawn after the transmit's.
        sim = self.sim
        deadline = (sim._now + self.RTO * (1.5 ** min(attempt, 8)),
                    next(sim._seq), packet, size, attempt + 1)
        armed = self._armed[dst]
        if armed is None:
            self._arm(dst, deadline)
        elif deadline < armed:
            sim._withdraw(armed[0], armed[1], armed[5])
            heappush(self._waiting[dst], armed[:5])
            self._arm(dst, deadline)
        else:
            heappush(self._waiting[dst], deadline)

    def _arm(self, dst: str, deadline: tuple) -> None:
        timer = self.sim._timeout_keyed(deadline[0], deadline[1], dst)
        timer.callbacks.append(self._on_timer)
        self._armed[dst] = deadline + (timer,)

    def _arm_next(self, dst: str) -> None:
        """Arm ``dst``'s timer (not armed) at its earliest live waiting
        deadline, dropping the acknowledged ones ahead of it."""
        waiting, unacked = self._waiting[dst], self._unacked[dst]
        while waiting:
            deadline = heappop(waiting)
            if deadline[2]["seq"] in unacked:
                self._arm(dst, deadline)
                return

    def _on_timer(self, event: Event) -> None:
        """``dst``'s earliest deadline is due: its next attempt."""
        dst = event._value
        _when, _key, packet, size, attempt, _timer = self._armed[dst]
        self._armed[dst] = None
        if self._waiting[dst]:
            self._arm_next(dst)
        self._attempt(dst, packet, size, attempt)

    def _on_packet(self, pkt) -> None:
        frame = pkt.payload
        if frame.get("ctrl") == "ACK":
            src, seq = pkt.src, frame["seq"]
            unacked = self._unacked.get(src)
            if unacked is not None:
                unacked.discard(seq)
                armed = self._armed[src]
                if armed is not None and armed[2]["seq"] == seq:
                    self.sim._withdraw(armed[0], armed[1], armed[5])
                    self._armed[src] = None
                    if self._waiting[src]:
                        self._arm_next(src)
            return
        if frame.get("ctrl") == "VOLATILE":
            self.dispatch(frame["src"], frame["body"])
            return
        src, seq = frame["src"], frame["seq"]
        link = self._links.get(src)
        if link is None:
            link = self._links[src] = self.network.link(self.node.name, src)
        link.transmit(Packet(self.node.name, src, {"ctrl": "ACK", "seq": seq},
                             64, self.port))
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
