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
    retransmit-until-acked transport standing in for TCP.
"""

from __future__ import annotations

import itertools
from typing import Callable

from ..cactus.messages import payload_nbytes
from ..simnet.kernel import Simulator
from ..simnet.network import Network, Node
from .session import CONTROL_PORT

__all__ = ["ReliableControlLink"]


class ReliableControlLink:
    """Retransmit-until-acked control messaging (the TCP stand-in).

    Control packets ride the same simulated links as data (so they see
    the same latency) on the reserved control port, but with their own
    acknowledgement/dedup layer so that "those messages must not be
    lost" holds even on impaired paths.
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
        self._seq = itertools.count()
        self._acked: set[int] = set()
        self._seen: dict[str, set[int]] = {}
        self.stats_tx = 0
        self.stats_retries = 0
        self._closed = False
        node.attach(port, self._on_packet)

    def send(self, dst: str, body: dict) -> None:
        """Fire-and-forget reliable send (delivery order not guaranteed,
        matching independent TCP connections per message exchange)."""
        seq = next(self._seq)
        packet = {"ctrl": "MSG", "seq": seq, "src": self.node.name, "body": body}
        size = 64 + payload_nbytes(body)
        self.stats_tx += 1
        self.sim.spawn(self._retransmit_loop(dst, packet, seq, size),
                       name=f"ctrl-tx-{self.node.name}-{seq}")

    def send_volatile(self, dst: str, body: dict) -> None:
        """Unacknowledged, undeduplicated one-shot send (e.g. pings,
        where a loss is itself the signal)."""
        self.network.send(
            self.node.name, dst,
            {"ctrl": "VOLATILE", "src": self.node.name, "body": body},
            64 + payload_nbytes(body), port=self.port,
        )

    def _retransmit_loop(self, dst: str, packet: dict, seq: int, size: int):
        for attempt in range(self.MAX_TRIES):
            # A message sent before close() still goes out once (the
            # CLOSEs of P2PSAP.close, say); close() stops retransmissions.
            if seq in self._acked or (attempt > 0 and self._closed):
                return
            if attempt > 0:
                self.stats_retries += 1
            self.network.send(self.node.name, dst, packet, size, port=self.port)
            yield self.sim.timeout(self.RTO * (1.5 ** min(attempt, 8)))
        # Peer unreachable; session-level fault tolerance deals with it.

    def _on_packet(self, pkt) -> None:
        frame = pkt.payload
        if frame.get("ctrl") == "ACK":
            self._acked.add(frame["seq"])
            return
        if frame.get("ctrl") == "VOLATILE":
            self.dispatch(frame["src"], frame["body"])
            return
        src, seq = frame["src"], frame["seq"]
        self.network.send(
            self.node.name, src,
            {"ctrl": "ACK", "seq": seq}, 64, port=self.port,
        )
        seen = self._seen.setdefault(src, set())
        if seq in seen:
            return
        seen.add(seq)
        self.dispatch(src, frame["body"])

    def close(self) -> None:
        self._closed = True
        self.node.detach(self.port, self._on_packet)
