"""The P2PSAP control channel.

"The Control channel manages session opening and closure.  It captures
context information and (re)configures the data channel at opening or
operation time.  It is also responsible for coordination between peers
during reconfiguration process.  Note that we use the TCP/IP protocol to
exchange control messages since those messages must not be lost."

Four components, mirroring Section II.C:

:class:`ContextMonitor`
    collects context data: the application's scheme requirement, peer
    location (intra/inter-cluster), measured latency and loads.
:class:`Controller`
    combines context into a :class:`ChannelConfig` via the rule engine
    (Table I by default) at session opening, and takes reconfiguration
    decisions when context changes.
:class:`Reconfiguration`
    realizes configuration changes on the data channel (micro-protocol
    substitution), quiescing reliable channels first.
:class:`Coordination`
    the inter-peer protocol (OPEN / OPEN_ACK / RECONFIG / RECONFIG_ACK /
    CLOSE) riding on :class:`ReliableControlLink`, a stop-loss
    retransmit-until-acked transport standing in for TCP.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from ..cactus.messages import payload_nbytes
from ..simnet.kernel import Simulator
from ..simnet.network import Network, Node
from .context import ChannelConfig, ConnectionKind, ContextSnapshot, Scheme
from .rules import RuleEngine
from .session import CONTROL_PORT, Session

__all__ = [
    "ContextMonitor",
    "Controller",
    "Reconfiguration",
    "ReliableControlLink",
]


class ContextMonitor:
    """Collects the context data the controller decides from.

    "Context data are collected at specific times, periodically or by
    means of triggers."  Triggers are modelled by
    :meth:`notify_topology_change`, which interested parties (the
    controller) subscribe to.
    """

    def __init__(self, network: Network, node: Node):
        self.network = network
        self.node = node
        self._listeners: list[Callable[[], None]] = []

    def connection_kind(self, remote: str) -> ConnectionKind:
        if self.network.same_cluster(self.node.name, remote):
            return ConnectionKind.INTRA_CLUSTER
        return ConnectionKind.INTER_CLUSTER

    def snapshot(self, scheme: Scheme, remote: str,
                 session: Optional[Session] = None) -> ContextSnapshot:
        """One observation, aggregating static and measured context."""
        link = self.network.link(self.node.name, remote)
        latency = link.netem.delay
        if session is not None and session.channel is not None:
            srtt = session.channel.transport.shared.get("srtt")
            if srtt:
                latency = srtt / 2.0
        return ContextSnapshot(
            scheme=scheme,
            connection=self.connection_kind(remote),
            latency_estimate=latency,
            loss_estimate=link.netem.loss,
            local_load=self.node.background_load,
        )

    def subscribe(self, listener: Callable[[], None]) -> None:
        self._listeners.append(listener)

    def notify_topology_change(self) -> None:
        """Trigger-based context acquisition: something moved clusters."""
        for listener in self._listeners:
            listener()


class Controller:
    """Combines context and rules into configuration decisions."""

    def __init__(self, monitor: ContextMonitor, rules: Optional[RuleEngine] = None):
        self.monitor = monitor
        self.rules = rules if rules is not None else RuleEngine()

    def decide(self, scheme: Scheme, remote: str,
               session: Optional[Session] = None) -> ChannelConfig:
        ctx = self.monitor.snapshot(scheme, remote, session)
        return self.rules.decide(ctx)

    def needs_reconfiguration(self, session: Session) -> Optional[ChannelConfig]:
        """Re-evaluate a session's configuration; None if unchanged."""
        new = self.decide(session.scheme, session.remote, session)
        return new if new != session.config else None


class Reconfiguration:
    """Applies configuration changes to a data channel.

    "Reconfiguration is mainly made at the transport layer by
    substituting or removing and adding micro-protocols that support
    communication mode."

    Reliable channels are quiesced first (all in-flight segments
    acknowledged) so no acknowledged-delivery promise is broken by the
    epoch switch.
    """

    QUIESCE_POLL = 0.01
    QUIESCE_LIMIT = 10.0

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.stats_applied = 0

    def apply(self, session: Session, config: ChannelConfig):
        """Generator process: quiesce if needed, then swap micro-protocols."""
        channel = session.require_open()
        deadline = self.sim.now + self.QUIESCE_LIMIT
        if channel.config.reliable and channel.transport.has_micro("reliability"):
            rel = channel.transport.micro("reliability")
            while rel.unacked_count > 0 and self.sim.now < deadline:
                yield self.sim.timeout(self.QUIESCE_POLL)
        channel.reconfigure(config)
        session.config = config
        self.stats_applied += 1
        return config


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
            if self._closed or seq in self._acked:
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
