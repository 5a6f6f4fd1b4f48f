"""The (centralized) topology manager.

"The topology manager component is currently centralized.  We use a
server in order to store information about all nodes in the network.
When a node joins the network, it sends to the server a message.  The
server adds the new node to peer list and sends to the node an
acknowledgement message.  Peers must send ping messages periodically to
server to inform it that they are alive.  If the server does not receive
ping message from a peer after 3 ping periods, the server considers that
this peer is disconnected and removes it from the peer list."

:class:`TopologyServer` runs on one node; :class:`TopologyClient` on
every peer.  Peer collection ("returns free peers") serves the task
manager.  Pings are deliberately fire-and-forget (a lost ping *is* the
failure signal); everything else rides the node's reliable
:class:`~repro.core.env_bus.EnvBus`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from ..simnet.kernel import Interrupt, Simulator
from .env_bus import ENV_PORT, EnvBus

__all__ = [
    "PeerRecord",
    "TopologyServer",
    "TopologyClient",
    "ENV_PORT",
    "PING_PERIOD",
    "MISSED_PINGS_LIMIT",
]

#: Ping period in (virtual) seconds; eviction after 3 missed periods.
PING_PERIOD = 1.0
MISSED_PINGS_LIMIT = 3


@dataclasses.dataclass
class PeerRecord:
    """What the server knows about one peer."""

    name: str
    cluster: str
    cpu_hz: float
    background_load: float
    joined_at: float
    last_ping: float
    busy: bool = False

    def effective_speed(self) -> float:
        """Speed estimate for per-peer work shares."""
        return self.cpu_hz / (1.0 + self.background_load)


class TopologyServer:
    """Central registry: join/ping/collect/release, with eviction."""

    def __init__(self, sim: Simulator, bus: EnvBus):
        self.sim = sim
        self.bus = bus
        self.node = bus.node
        self.peers: dict[str, PeerRecord] = {}
        self.stats_evictions = 0
        self._on_eviction: list[Callable[[str], None]] = []
        bus.register("JOIN", self._handle_join)
        bus.register("PING", self._handle_ping)
        bus.register("LEAVE", self._handle_leave)
        self._monitor = sim.spawn(self._eviction_loop(), name="topo-evict")

    # -- message handling -------------------------------------------------------

    def _handle_join(self, src: str, body: dict) -> None:
        now = self.sim.now
        self.peers[src] = PeerRecord(
            name=src,
            cluster=body["cluster"],
            cpu_hz=body["cpu_hz"],
            background_load=body.get("background_load", 0.0),
            joined_at=now,
            last_ping=now,
        )
        self.bus.send(src, {"kind": "JOIN_ACK"})

    def _handle_ping(self, src: str, body: dict) -> None:
        rec = self.peers.get(src)
        if rec is not None:
            rec.last_ping = self.sim.now

    def _handle_leave(self, src: str, body: dict) -> None:
        self.peers.pop(src, None)

    # -- eviction ----------------------------------------------------------------

    def _eviction_loop(self):
        try:
            while True:
                yield self.sim.timeout(PING_PERIOD)
                deadline = self.sim.now - MISSED_PINGS_LIMIT * PING_PERIOD
                for name in [
                    n for n, rec in self.peers.items() if rec.last_ping < deadline
                ]:
                    del self.peers[name]
                    self.stats_evictions += 1
                    for hook in self._on_eviction:
                        hook(name)
        except Interrupt:
            return

    def on_eviction(self, hook: Callable[[str], None]) -> None:
        """Subscribe to peer-disconnection events (fault tolerance)."""
        self._on_eviction.append(hook)

    # -- peer collection ------------------------------------------------------------

    def collect(self, n_peers: int, include_self: bool = True) -> list[str]:
        """Reserve ``n_peers`` free peers for a task.

        "the server checks its peer list and returns free peers".  The
        submitting node is preferred first (it is certainly alive), then
        peers in join order, grouped so cluster mates stay adjacent —
        which maps contiguous plane ranges onto clusters the way the
        paper's OEDL placement does.
        """
        free = [r for r in self.peers.values() if not r.busy]
        by_cluster: dict[str, list[PeerRecord]] = {}
        for rec in free:
            by_cluster.setdefault(rec.cluster, []).append(rec)
        ordered: list[PeerRecord] = []
        for cluster in by_cluster.values():
            ordered.extend(cluster)
        if include_self:
            mine = [r for r in ordered if r.name == self.node.name]
            others = [r for r in ordered if r.name != self.node.name]
            ordered = mine + others
        if len(ordered) < n_peers:
            raise RuntimeError(
                f"need {n_peers} free peers, only {len(ordered)} available"
            )
        chosen = ordered[:n_peers]
        for rec in chosen:
            rec.busy = True
        return [r.name for r in chosen]

    def release(self, names: list[str]) -> None:
        """Mark peers free again after a task completes."""
        for name in names:
            rec = self.peers.get(name)
            if rec is not None:
                rec.busy = False

    def alive(self, name: str) -> bool:
        return name in self.peers

    def records(self, names: list[str]) -> list[PeerRecord]:
        return [self.peers[n] for n in names]

    def close(self) -> None:
        if self._monitor.is_alive:
            self._monitor.interrupt("close")


class TopologyClient:
    """Peer-side agent: joins the network and keeps pinging."""

    def __init__(self, sim: Simulator, bus: EnvBus, server_name: str):
        self.sim = sim
        self.bus = bus
        self.node = bus.node
        self.server_name = server_name
        self.joined = False
        bus.register("JOIN_ACK", self._handle_join_ack)
        self._pinger = None

    def _handle_join_ack(self, src: str, body: dict) -> None:
        self.joined = True

    def join(self) -> None:
        """Register with the server and start the ping loop."""
        self.bus.send(self.server_name, {
            "kind": "JOIN",
            "cluster": self.node.cluster,
            "cpu_hz": self.node.cpu_hz,
            "background_load": self.node.background_load,
        })
        self._pinger = self.sim.spawn(
            self._ping_loop(), name=f"ping-{self.node.name}"
        )

    def leave(self) -> None:
        self.bus.send(self.server_name, {"kind": "LEAVE"})
        self.close()

    def _ping_loop(self):
        try:
            while True:
                yield self.sim.timeout(PING_PERIOD)
                if not self.node.alive:
                    return  # a dead machine pings no more
                # Fire-and-forget on purpose: losing pings is the signal.
                self.bus.send_volatile(self.server_name, {"kind": "PING"})
        except Interrupt:
            return

    def close(self) -> None:
        if self._pinger is not None and self._pinger.is_alive:
            self._pinger.interrupt("close")
