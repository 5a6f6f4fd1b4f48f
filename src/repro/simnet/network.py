"""Simulated network: nodes, links and Netem-style impairments.

This module models the paper's physical testbed: 38 identical machines
(1 GHz CPU, 1 GB RAM) on a 100 Mbit/s switched Ethernet, with the
inter-cluster Internet path emulated by Netem at 100 ms latency.

The model is packet-level.  A :class:`Link` delays each packet by

    serialization (size / bandwidth) + propagation (latency + jitter)

and may drop, duplicate or reorder packets per its :class:`Netem`
discipline.  Packets on one link are serialized in FIFO order (a busy
link queues subsequent packets), which is what makes synchronous schemes
feel bandwidth pressure when many boundary planes are exchanged at the
same instant.

A packet normally costs one DES event when it lands, and its receiving
endpoint's host-side service another.  For a physical-layer endpoint
behind a FIFO link, the link already knows at send time when that
service will complete, so it hands the packet over then and the packet
costs one event at its service completion (see :meth:`Link.transmit`
and :mod:`repro.p2psap.physical.base`); simulated times are unchanged.

A node hands each arrived packet to the one receiver attached to its
port (:meth:`Node.attach`).  A packet for a port with no receiver, such
as a late ACK to a closed control link, is dropped and counted in
:attr:`Node.stats_unclaimed`; the link still counts it as delivered.

Compute costs are modeled by :meth:`Node.compute`, which converts a flop
count into virtual seconds using the node's clock rate and a
flops-per-cycle factor.  The distributed solver charges its *real* NumPy
relaxation work through this hook, so relaxation counts are genuine and
only wall-clock time is synthetic.
"""

from __future__ import annotations

import dataclasses
import math
import zlib
from typing import Any, Callable, Iterator, Optional

import numpy as np

from .kernel import Event, Simulator

__all__ = [
    "Netem",
    "Packet",
    "Node",
    "Link",
    "Network",
    "NetworkError",
    "NoRouteError",
]


class NetworkError(RuntimeError):
    """Base class for network-layer errors."""


class NoRouteError(NetworkError):
    """Raised when no link exists between two nodes."""


@dataclasses.dataclass(frozen=True)
class Netem:
    """Netem-style traffic discipline parameters for one link direction.

    Mirrors the subset of ``tc netem`` the paper uses (fixed 100 ms delay
    between clusters) plus loss/jitter/duplication/reordering so the
    protocol layers have something real to adapt to.

    Attributes
    ----------
    delay:
        Base one-way propagation delay in seconds.
    jitter:
        Uniform jitter half-width in seconds; each packet's propagation
        delay is ``delay + U(-jitter, +jitter)`` clamped at 0.
    loss:
        Independent per-packet drop probability in [0, 1].
    duplicate:
        Probability a packet is delivered twice.
    reorder:
        Probability a packet skips the serialization queue (delivered with
        propagation delay only), which reorders it ahead of queued traffic.
    """

    delay: float = 0.0
    jitter: float = 0.0
    loss: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0

    def __post_init__(self) -> None:
        if self.delay < 0 or self.jitter < 0:
            raise ValueError("delay and jitter must be non-negative")
        for name in ("loss", "duplicate", "reorder"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")


class Packet:
    """One unit of data in flight on the simulated network.

    ``payload`` is opaque to the network (the transport layer passes
    segment objects); ``size_bytes`` is what the link serializes.  The
    network never copies payloads — the same object reference is delivered
    to the receiver, mirroring the zero-copy modification the paper made
    to Cactus.
    """

    __slots__ = ("src", "dst", "payload", "size_bytes", "port", "sent_at")

    def __init__(self, src: str, dst: str, payload: Any, size_bytes: int,
                 port: int = 0, sent_at: float = 0.0):
        if size_bytes < 0:
            raise ValueError("packet size must be non-negative")
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size_bytes = size_bytes
        self.port = port
        self.sent_at = sent_at


class Node:
    """A machine in the testbed.

    Parameters
    ----------
    sim:
        The owning simulator.
    name:
        Unique node name (e.g. ``"peer03"``).
    cpu_hz:
        Clock rate; the NICTA machines are 1 GHz.
    flops_per_cycle:
        Sustained useful flops per cycle for the stencil workload.  The
        absolute value only scales the time axis; relative speeds between
        heterogeneous peers are what matter.
    cluster:
        Cluster label used by the topology manager and by P2PSAP's
        intra/inter-cluster context detection.

    Each port has at most one receiver (:meth:`attach`).  A packet that
    arrives on a port with no receiver is dropped and counted in
    :attr:`stats_unclaimed`; nothing queues it for a later taker.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cpu_hz: float = 1e9,
        flops_per_cycle: float = 1.0,
        cluster: str = "cluster0",
        mem_bytes: int = 1 << 30,
    ):
        if cpu_hz <= 0:
            raise ValueError("cpu_hz must be positive")
        self.sim = sim
        self.name = name
        self.cpu_hz = cpu_hz
        self.flops_per_cycle = flops_per_cycle
        self.cluster = cluster
        self.mem_bytes = mem_bytes
        # Per-port delivery to the attached receiver (physical layer,
        # control link).
        self._receivers: dict[int, Callable[[Packet], None]] = {}
        # Ports whose receiver is a FIFO server that links may hand
        # packets to at send time (see Link.transmit).
        self._servers: dict[int, Any] = {}
        self.alive = True
        # Simple load model for the load-balancing extension: a background
        # load factor >= 0 slows compute() down by (1 + load).
        self.background_load = 0.0
        self.stats_flops = 0.0
        self.stats_busy_time = 0.0
        #: Packets that arrived on a port with no receiver (dropped).
        self.stats_unclaimed = 0

    def attach(self, port: int, receiver: Callable[["Packet"], None]) -> None:
        """Call ``receiver(packet)`` for packets arriving on ``port``;
        a later attach takes over.

        A receiver that is a bound method of a FIFO server (an object
        with ``_fold``/``_unfold``, i.e. a physical-layer endpoint) lets
        links hand it packets at send time; packets that have not
        arrived when the port changes hands go to whoever holds it then.
        """
        old = self._servers.pop(port, None)
        if old is not None:
            old._unfold()
        self._receivers[port] = receiver
        server = getattr(receiver, "__self__", None)
        if hasattr(server, "_fold"):
            self._servers[port] = server

    def detach(self, port: int, receiver: Callable[["Packet"], None]) -> None:
        """Undo :meth:`attach`, unless another receiver took the port over."""
        if self._receivers.get(port) == receiver:
            del self._receivers[port]
            self._servers.pop(port, None)

    def deliver(self, packet: "Packet") -> None:
        """Hand an arrived packet to its port's receiver, or drop it."""
        receiver = self._receivers.get(packet.port)
        if receiver is not None:
            receiver(packet)
        else:
            self.stats_unclaimed += 1

    def compute(self, flops: float) -> Event:
        """An event that fires when ``flops`` of work completes.

        Charges ``flops / (cpu_hz * flops_per_cycle) * (1 + background_load)``
        seconds of virtual time.
        """
        if flops < 0:
            raise ValueError("flops must be non-negative")
        seconds = flops / (self.cpu_hz * self.flops_per_cycle)
        seconds *= 1.0 + self.background_load
        self.stats_flops += flops
        self.stats_busy_time += seconds
        return self.sim.timeout(seconds)

    def busy(self, seconds: float) -> Event:
        """An event that fires after ``seconds`` of local wall time."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        self.stats_busy_time += seconds
        return self.sim.timeout(seconds)

    def fail(self) -> None:
        """Mark the node dead; subsequent deliveries to it are dropped.

        Packets that arrived before the failure are still served; those
        still on the wire are dropped if the node is down when they land.
        """
        self.alive = False
        for server in self._servers.values():
            server._unfold()

    def recover(self) -> None:
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.name} cluster={self.cluster} {self.cpu_hz/1e9:.2f}GHz>"


class Link:
    """A unidirectional point-to-point link with FIFO serialization.

    ``bandwidth_bps`` of 0 or ``math.inf`` disables serialization delay
    (useful for idealized links in unit tests).
    """

    def __init__(
        self,
        sim: Simulator,
        src: Node,
        dst: Node,
        bandwidth_bps: float = 100e6,
        netem: Netem = Netem(),
        rng: Optional[np.random.Generator] = None,
        name: str = "",
    ):
        if bandwidth_bps < 0:
            raise ValueError("bandwidth must be non-negative")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.bandwidth_bps = bandwidth_bps
        self.netem = netem
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.name = name or f"{src.name}->{dst.name}"
        # The time at which the transmitter becomes free; FIFO
        # serialization is modeled by pushing this forward per packet.
        self._tx_free_at = 0.0
        self.stats_sent = 0
        self.stats_delivered = 0
        self.stats_dropped = 0
        self.stats_duplicated = 0
        self.stats_bytes = 0
        self._delivery_hooks: list[Callable[[Packet], None]] = []

    def add_delivery_hook(self, hook: Callable[[Packet], None]) -> None:
        """Called for every delivered packet (a test's packet tap).

        A packet an endpoint serves with one event (see :meth:`transmit`)
        runs the hooks when it is served, not when it lands; if its
        endpoint closes before serving it, when the endpoint closes.
        """
        self._delivery_hooks.append(hook)

    # -- timing --------------------------------------------------------------

    def _propagation_delay(self) -> float:
        d = self.netem.delay
        if self.netem.jitter > 0:
            d += float(self.rng.uniform(-self.netem.jitter, self.netem.jitter))
        return max(d, 0.0)

    def transmit(self, packet: Packet) -> None:
        """Put ``packet`` on the wire; delivery is scheduled, not awaited.

        The sender never blocks: transport-layer flow control (congestion
        windows, the buffer-management micro-protocol) is responsible for
        pacing, exactly as in a real kernel where ``send`` returns once the
        frame is queued on the NIC.

        Delivery is normally one event at the arrival time ``T``.  When
        the link is FIFO (no jitter, reordering or duplication), the
        destination is up and the port's receiver is a FIFO server, the
        packet is handed to the server now instead (``_fold``): it
        already knows when its service will complete, so one event at
        that instant does the arrival and the service.  Whatever could
        change what happens at ``T`` — the node failing, the port
        changing hands, another packet landing first on the ordinary
        path (a shorter or jittery link, another sender) — turns such
        packets back into arrival events at ``T``, keyed exactly as
        they would have been.
        """
        self.stats_sent += 1
        size = packet.size_bytes
        self.stats_bytes += size
        now = packet.sent_at = self.sim._now
        netem = self.netem

        if not self.src.alive:
            # A dead machine transmits nothing (its processes may still
            # be scheduled in the simulation, but their traffic dies at
            # the NIC).
            self.stats_dropped += 1
            return
        if netem.loss > 0 and self.rng.random() < netem.loss:
            self.stats_dropped += 1
            return

        reordered = netem.reorder > 0 and self.rng.random() < netem.reorder
        # _propagation_delay, inlined with the same float operations:
        # once per packet.
        prop = netem.delay
        if netem.jitter > 0:
            prop += float(self.rng.uniform(-netem.jitter, netem.jitter))
        if 0.0 > prop:  # max(prop, 0.0)
            prop = 0.0
        if reordered:
            # Skips the queue: pure propagation delay.
            total = prop
        else:
            # Serialization (size / bandwidth), inlined likewise.
            bandwidth = self.bandwidth_bps
            if bandwidth == 0 or bandwidth == math.inf:
                ser = 0.0
            else:
                ser = (size * 8.0) / bandwidth
            free = self._tx_free_at
            start = free if free > now else now  # max(now, free)
            self._tx_free_at = start + ser
            total = (start - now) + ser + prop
            dst = self.dst
            server = dst._servers.get(packet.port)
            if (server is not None and dst.alive
                    and not (netem.jitter or netem.reorder or netem.duplicate)
                    and server._fold(self, packet, now + total,
                                     next(self.sim._seq))):
                return

        self._schedule_delivery(packet, total)
        if netem.duplicate > 0 and self.rng.random() < netem.duplicate:
            self.stats_duplicated += 1
            dup = Packet(packet.src, packet.dst, packet.payload,
                         packet.size_bytes, packet.port, packet.sent_at)
            self._schedule_delivery(dup, total + self._propagation_delay())

    def reconfigure(
        self,
        bandwidth_bps: Optional[float] = None,
        netem: Optional[Netem] = None,
    ) -> None:
        """Reparameterize the link mid-simulation (``tc qdisc change``).

        The fault-injection layer uses this to degrade links over time:
        new packets see the new bandwidth/netem, packets already in
        flight keep the parameters they were transmitted with, and the
        serialization horizon (``_tx_free_at``) is preserved — a link
        that was busy stays busy across the change, exactly as a real
        qdisc swap would behave.
        """
        if bandwidth_bps is not None:
            if bandwidth_bps < 0:
                raise ValueError("bandwidth must be non-negative")
            self.bandwidth_bps = bandwidth_bps
        if netem is not None:
            if not isinstance(netem, Netem):
                raise TypeError(f"netem must be a Netem, got {type(netem).__name__}")
            self.netem = netem

    def _schedule_delivery(self, packet: Packet, delay: float) -> None:
        # The packet rides the timeout as its value.
        self.sim.timeout(delay, packet).callbacks.append(self._deliver)

    def _arrive_at(self, when: float, seq: int, packet: Packet) -> None:
        """Put a packet an endpoint gave back (``_unfold``) on the arrival
        path, keyed as :meth:`transmit` would have keyed it."""
        self.sim._timeout_keyed(when, seq, packet).callbacks.append(self._deliver)

    def _deliver(self, arrival: Event) -> None:
        packet: Packet = arrival._value  # processed: no pending check
        dst = self.dst
        if not dst.alive:
            self.stats_dropped += 1
            return
        self._count_delivery(packet)
        dst.deliver(packet)

    def _count_delivery(self, packet: Packet) -> None:
        """The packet reached its node: count it and run the hooks."""
        self.stats_delivered += 1
        for hook in self._delivery_hooks:
            hook(packet)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Link {self.name} {self.bandwidth_bps/1e6:.0f}Mbit "
            f"delay={self.netem.delay*1e3:.1f}ms loss={self.netem.loss:.3f}>"
        )


class Network:
    """Registry of nodes and links with cluster-aware default routing.

    The paper's topology is flat IP over Ethernet with optional Netem
    between clusters, so the model is: any two distinct nodes are
    connected; the link parameters depend on whether they share a cluster.
    Explicit per-pair links (heterogeneous setups, faster fabrics)
    override the defaults.
    """

    def __init__(
        self,
        sim: Simulator,
        seed: int = 0,
        intra_bandwidth_bps: float = 100e6,
        intra_netem: Netem = Netem(delay=0.0001),
        inter_bandwidth_bps: float = 100e6,
        inter_netem: Netem = Netem(delay=0.1),
    ):
        self.sim = sim
        self.nodes: dict[str, Node] = {}
        self._links: dict[tuple[str, str], Link] = {}
        self._seed_seq = np.random.SeedSequence(seed)
        self.intra_bandwidth_bps = intra_bandwidth_bps
        self.intra_netem = intra_netem
        self.inter_bandwidth_bps = inter_bandwidth_bps
        self.inter_netem = inter_netem

    # -- construction ----------------------------------------------------------

    def add_node(self, name: str, **kwargs: Any) -> Node:
        """Create and register a node; names must be unique."""
        if name in self.nodes:
            raise NetworkError(f"duplicate node name {name!r}")
        node = Node(self.sim, name, **kwargs)
        self.nodes[name] = node
        return node

    def add_link(
        self,
        src: str,
        dst: str,
        bandwidth_bps: Optional[float] = None,
        netem: Optional[Netem] = None,
    ) -> Link:
        """Create an explicit unidirectional link, overriding defaults."""
        a, b = self._pair(src, dst)
        intra = a.cluster == b.cluster
        bw = bandwidth_bps if bandwidth_bps is not None else (
            self.intra_bandwidth_bps if intra else self.inter_bandwidth_bps
        )
        ne = netem if netem is not None else (
            self.intra_netem if intra else self.inter_netem
        )
        link = Link(self.sim, a, b, bw, ne, rng=self._fresh_rng(src, dst))
        self._links[(src, dst)] = link
        return link

    def _fresh_rng(self, src: str, dst: str) -> np.random.Generator:
        # Derive a per-link stream from the network seed and the pair name,
        # so adding unrelated links does not perturb existing randomness.
        # crc32, not hash(): str hashing is salted per process, which would
        # silently break cross-run reproducibility of lossy-link traces.
        digest = zlib.crc32(f"{src}\x00{dst}".encode()) % (2**31)
        return np.random.default_rng(self._seed_seq.spawn(1)[0].generate_state(1)[0] ^ digest)

    def _pair(self, src: str, dst: str) -> tuple[Node, Node]:
        try:
            a = self.nodes[src]
        except KeyError:
            raise NoRouteError(f"unknown node {src!r}") from None
        try:
            b = self.nodes[dst]
        except KeyError:
            raise NoRouteError(f"unknown node {dst!r}") from None
        if src == dst:
            raise NetworkError("loopback handled at the session layer, not the network")
        return a, b

    # -- lookup ---------------------------------------------------------------

    def link(self, src: str, dst: str) -> Link:
        """The link from src to dst, created from defaults on first use."""
        key = (src, dst)
        if key not in self._links:
            self.add_link(src, dst)
        return self._links[key]

    def same_cluster(self, a: str, b: str) -> bool:
        return self.nodes[a].cluster == self.nodes[b].cluster

    def clusters(self) -> dict[str, list[Node]]:
        """Nodes grouped by cluster label, in insertion order."""
        out: dict[str, list[Node]] = {}
        for node in self.nodes.values():
            out.setdefault(node.cluster, []).append(node)
        return out

    def iter_links(self) -> Iterator[Link]:
        return iter(self._links.values())

    # -- convenience ------------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any, size_bytes: int, port: int = 0) -> None:
        """Transmit one packet using the (auto-created) src→dst link."""
        self.link(src, dst).transmit(
            Packet(src=src, dst=dst, payload=payload, size_bytes=size_bytes, port=port)
        )
