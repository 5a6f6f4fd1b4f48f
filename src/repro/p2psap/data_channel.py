"""The P2PSAP data channel.

"The Cactus built data channel transfers data packets between peers.
The data channel has two levels: the physical layer and the transport
layer; each layer corresponds to a Cactus composite protocol."

:class:`DataChannel` assembles one endpoint of a session:

- a *transport* composite protocol composed of micro-protocols chosen
  from a :class:`~repro.p2psap.context.ChannelConfig` — communication
  mode (sync/async), buffer management, reliability (which also delivers
  in sequence) if the config is reliable, optionally a congestion
  controller;
- the *physical* composite protocol (the testbed's Ethernet) below it;
- glue handlers that frame outgoing segments and dispatch incoming ones
  into the receive pipeline.

Segment format: every frame carries a single ``transport`` header with a
``kind`` discriminator — ``DATA`` (application payload), ``ACK``
(transport acknowledgement, reliability), ``LOW`` (reliability gave a
segment up: nothing below ``low`` comes again), ``APPACK``
(application-level acknowledgement, synchronous mode) and
``ACK+APPACK`` (both in one header: ``seq``/``echo_ts`` and
``msg_id``).  Data segments are transmitted as fresh *shell* messages
sharing the payload object (zero-copy) so that retransmissions never
mutate shared header state.

A DATA segment that needs an APPACK holds its ACK until the end of its
own receive chain — TCP's delayed ACK riding on a reply (RFC 1122
section 4.2.3.2), with the chain as the delay and no timer.  If the
receiving application takes the message inside the chain (its receive
was already posted), the APPACK carries the ACK: one ``ACK+APPACK``
frame, one header, where two frames went before.  Otherwise the ACK
goes alone at the end of the chain and the APPACK follows when the
message is taken.  The receiving end raises ``RxAck`` and then
``RxAppAck``, the order in which the two frames arrived.  A lost
merged frame is a lost ACK and a lost APPACK: reliability retransmits
the DATA (whose duplicate is ACKed alone) and the send completes by
``appack_timeout``.  Reliability and the mode micro-protocols do not
know of it; asynchronous channels never hold an ACK.

A channel's config is fixed by the session that opens it.
:meth:`DataChannel.reconfigure`, the channel-level Cactus substitution
primitive, swaps the transport micro-protocols under a new epoch; it is
kept for the tests that swap modes mid-stream, and no session path
calls it.
"""

from __future__ import annotations

from typing import Any, Optional

from ..cactus.composite import CompositeProtocol, ProtocolStack
from ..cactus.messages import Message
from ..simnet.kernel import Event, Simulator
from ..simnet.network import Network, Node
from .context import ChannelConfig
from .microprotocols.buffers import BufferManagement
from .microprotocols.congestion import make_congestion
from .microprotocols.modes import make_mode
from .microprotocols.reliability import Reliability
from .physical import ETHERNET, PhysicalProtocol

__all__ = ["DataChannel"]

_MODE_MICRO_NAMES = ("mode-sync", "mode-async")
_CC_MICRO_NAMES = ("cc-newreno", "cc-htcp")


class DataChannel:
    """One endpoint of a P2PSAP session's data path."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        local: Node,
        remote_name: str,
        port: int,
        config: ChannelConfig,
    ):
        self.sim = sim
        self.local = local
        self.remote_name = remote_name
        self.port = port
        self.config: Optional[ChannelConfig] = None
        self.closed = False
        self.stats_reconfigurations = 0
        #: Configuration epoch.  Sequence numbers are scoped to an epoch;
        #: segments from another epoch are dropped on arrival, so a
        #: reconfiguration gives reliability a clean sequence space even
        #: with old segments still in flight.
        self.epoch = 0
        self.stats_stale_epoch = 0
        # While a DATA segment that needs an APPACK runs its receive
        # chain: its message id, and its ACK once reliability sends it.
        self._appack_due: Optional[int] = None
        self._held_ack: Optional[dict] = None

        self.transport = CompositeProtocol(
            sim, f"transport[{local.name}->{remote_name}:{port}]"
        )
        self.physical = PhysicalProtocol(
            sim, network, local, remote_name, port, ETHERNET
        )
        self.stack = ProtocolStack([self.transport, self.physical])

        # Permanent glue (survives reconfiguration).
        self.transport.bus.bind("TxSegment", self._transmit_data, order=100)
        self.transport.bus.bind("SendControl", self._transmit_control, order=100)
        self.transport.bus.bind("FromBelow", self._dispatch, order=0)
        self.buffers = BufferManagement()
        self.transport.add_micro(self.buffers)

        self._apply_config(config)

    # -- configuration -----------------------------------------------------------

    def _apply_config(self, config: ChannelConfig) -> None:
        """Stack the config's micro-protocols into the transport layer."""
        # Receive pipeline: Rx entry -> [reliability] -> RxDeliver.
        if config.reliable:
            self.transport.add_micro(Reliability())
        if config.congestion != "none":
            self.transport.add_micro(make_congestion(config.congestion))
        self.transport.add_micro(make_mode(config.mode))
        self.config = config
        self._rx_entry = "RxData" if config.reliable else "RxDeliver"

    def _strip_config(self) -> None:
        """Remove all configuration-dependent micro-protocols."""
        for name in (*_MODE_MICRO_NAMES, "reliability", *_CC_MICRO_NAMES):
            if self.transport.has_micro(name):
                self.transport.remove_micro(name)

    def reconfigure(self, new_config: ChannelConfig) -> None:
        """Swap the channel to ``new_config`` in place.

        Queued outgoing messages and undelivered received messages are
        preserved (they live in the composite's shared state, which only
        buffer management owns, and buffer management is permanent).

        This is the channel-level Cactus primitive (micro-protocol
        substitution under a new epoch).  No session path calls it: a
        session's config is decided once, at open.  It stays for the
        delivery-invariance tests, which swap modes mid-stream, and for
        the end-to-end tracer, which counts its calls.
        """
        if self.closed:
            raise RuntimeError("reconfigure on a closed channel")
        if new_config == self.config:
            return
        self._strip_config()
        self._apply_config(new_config)
        self.stats_reconfigurations += 1
        # New epoch, fresh sequence space; re-sequence anything still
        # queued so it goes out consistently under the new regime.
        self.epoch += 1
        queue = self.transport.shared["tx_queue"]
        for i, queued in enumerate(queue):
            queued.meta["seq"] = i
        self.buffers._next_seq = len(queue)
        # Whatever was waiting for window space gets another chance under
        # the new regime.
        self.transport.bus.raise_event("TrySend")

    # -- application-facing operations ------------------------------------------------

    def user_send(self, payload: Any, completion: Optional[Event] = None) -> Event:
        """Send ``payload``; the returned event completes per the mode
        micro-protocol's semantics (immediately if asynchronous, on
        application-level acknowledgement if synchronous).
        ``completion``: the event to complete, when the caller brings
        its own."""
        if self.closed:
            raise RuntimeError("send on a closed channel")
        msg = Message(payload)
        if completion is None:
            completion = Event(self.sim)
        msg.meta["completion"] = completion
        self.transport.bus.compiled["UserSend"](msg)
        return completion

    def user_receive(self, request: Optional[Event] = None) -> Event:
        """Receive per the mode's semantics.  The event fires with a
        :class:`Message` (or ``None`` for an empty asynchronous receive);
        use ``.payload`` on the result.  ``request``: the event to
        complete, when the caller brings its own."""
        if self.closed:
            raise RuntimeError("receive on a closed channel")
        if request is None:
            request = Event(self.sim)
        self.transport.bus.compiled["UserReceive"](request)
        return request

    def user_receive_nowait(self) -> tuple[bool, Any]:
        """Non-blocking receive: ``(True, payload)`` or ``(False, None)``."""
        if self.closed:
            raise RuntimeError("receive on a closed channel")
        ok, msg = self.buffers.take_nowait()
        return (True, msg.payload) if ok else (False, None)

    def user_receive_latest_nowait(self) -> tuple[bool, Any]:
        """Non-blocking receive of the newest message, dropping staler ones."""
        if self.closed:
            raise RuntimeError("receive on a closed channel")
        ok, msg = self.buffers.take_latest_nowait()
        return (True, msg.payload) if ok else (False, None)

    def pending_rx(self) -> int:
        return self.buffers.pending_rx()

    # -- glue: transmit ------------------------------------------------------------

    def _transmit_data(self, msg: Message) -> None:
        """Frame an application message as a DATA segment and send it.

        A fresh shell message is built per transmission: the payload
        object is shared (zero-copy) and so is its size, measured once
        on ``msg``; the header is new, so retransmissions are isolated.
        Reliability stamps the transmit time and its lowest
        unacknowledged sequence number into ``msg.meta`` first; without
        it the time is now and ``low`` is 0.
        """
        meta = msg.meta
        if "tx_time" in meta:
            ts, low = meta["tx_time"], meta["low"]
        else:
            ts, low = self.sim._now, 0
        header = {"kind": "DATA", "epoch": self.epoch, "seq": meta["seq"],
                  "low": low, "msg_id": msg.message_id,
                  "needs_appack": "needs_appack" in meta, "ts": ts}
        self.transport.send_down(Message.framed(
            msg.payload, [("transport", header)], msg.payload_bytes))

    def _transmit_control(self, kind: str, fields: dict) -> None:
        """Send a header-only segment; inside the receive chain of a
        DATA segment that needs an APPACK, hold its ACK for the APPACK
        to carry (:meth:`_dispatch`)."""
        if self._appack_due is not None:
            if kind == "ACK":
                self._held_ack = fields
                return
            if (kind == "APPACK" and self._held_ack is not None
                    and fields["msg_id"] == self._appack_due):
                kind, fields = "ACK+APPACK", {**self._held_ack, **fields}
                self._held_ack = None
        header = {"kind": kind, "epoch": self.epoch, **fields}
        self.transport.send_down(
            Message.framed(None, [("transport", header)], 0))

    # -- glue: receive ---------------------------------------------------------------

    def _dispatch(self, msg: Message) -> None:
        fields = msg.pop_header("transport")
        if fields["epoch"] != self.epoch:
            self.stats_stale_epoch += 1
            return
        kind = fields["kind"]
        compiled = self.transport.bus.compiled
        if kind == "DATA":
            meta = msg.meta
            meta["seq"] = fields["seq"]
            meta["src_message_id"] = fields["msg_id"]
            meta["needs_appack_rx"] = needs_appack = fields["needs_appack"]
            if not needs_appack:
                compiled[self._rx_entry](msg, fields)
                return
            # The segment's ACK waits for the end of its receive chain:
            # an application that takes the message inside it sends the
            # APPACK, and the ACK rides on it; otherwise it goes alone.
            self._appack_due = fields["msg_id"]
            compiled[self._rx_entry](msg, fields)
            self._appack_due = None
            held = self._held_ack
            if held is not None:
                self._held_ack = None
                self._transmit_control("ACK", held)
        elif kind == "ACK":
            compiled["RxAck"](fields["seq"], fields["echo_ts"])
        elif kind == "ACK+APPACK":
            compiled["RxAck"](fields["seq"], fields["echo_ts"])
            compiled["RxAppAck"](fields["msg_id"])
        elif kind == "APPACK":
            compiled["RxAppAck"](fields["msg_id"])
        elif kind == "LOW":
            compiled["RxLow"](fields["low"])
        else:
            raise ValueError(f"unknown segment kind {kind!r}")

    # -- lifecycle -------------------------------------------------------------------

    def close(self) -> None:
        """Tear down the whole endpoint: micro-protocols and physical endpoint."""
        if self.closed:
            return
        self.closed = True
        self.transport.teardown()
        self.physical.close()
