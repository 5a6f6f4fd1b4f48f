"""Buffer-management micro-protocol.

"Two buffers must be managed: a sending buffer and a receiving buffer.
The sending buffer stores messages to be sent or that need to be
acknowledged.  The receiving buffer stores messages sent by other peers
that are waiting to be delivered.  This micro-protocol implements
handlers for the UserSend and MsgFromNet events to catch messages from
application and network."

Responsibilities here:

- assign transmission sequence numbers at ``UserSend`` time (FIFO, so
  sequence order == application send order — reliability's in-sequence
  delivery relies on this);
- hold messages in the *send queue* until the congestion window (if a
  congestion controller is stacked) admits them, pumping on ``TrySend``;
- hold received messages in the *receive buffer* until the application
  takes them, waking any pending receive request;
- enforce the receive-buffer capacity: on overflow the *oldest* message
  is dropped.  For the asynchronous iterative schemes this is exactly
  right — a newer iterate supersedes an older one ("those messages can
  become obsolete").

Shared-state keys (the Cactus shared data section):

- ``tx_queue``  — deque of messages awaiting window admission
- ``rx_buffer`` — deque of messages awaiting application receive
- ``rx_waiters`` — deque of kernel Events for blocked receives
- ``in_flight`` — set of unacked sequence numbers (owned by reliability)
- ``cwnd`` — congestion window (owned by the congestion controller)
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Optional

from ...cactus.messages import Message
from ...cactus.microprotocol import MicroProtocol
from ...simnet.kernel import _PENDING
from .congestion.base import CWND_KEY

__all__ = ["BufferManagement"]


class BufferManagement(MicroProtocol):
    name = "buffers"

    def __init__(self, rx_capacity: int = 1024):
        super().__init__()
        if rx_capacity < 1:
            raise ValueError("rx_capacity must be >= 1")
        self.rx_capacity = rx_capacity
        self._next_seq = 0
        self.stats_sent = 0
        self.stats_delivered = 0
        self.stats_rx_dropped = 0

    def on_init(self) -> None:
        shared = self.composite.shared
        shared.setdefault("tx_queue", deque())
        shared.setdefault("rx_buffer", deque())
        shared.setdefault("rx_waiters", deque())
        # Mode micro-protocols run on UserSend/RxDeliver before us (they
        # use order < 50) to attach completion semantics.
        self.bind("UserSend", self._on_user_send, order=50)
        self.bind("TrySend", self._on_try_send, order=50)
        self.bind("RxDeliver", self._on_rx_deliver, order=50)

    # -- transmit path ---------------------------------------------------------

    def _on_user_send(self, msg: Message) -> None:
        msg.meta["seq"] = self._next_seq
        self._next_seq += 1
        self.composite.shared["tx_queue"].append(msg)
        self.composite.bus.compiled["TrySend"]()

    def _on_try_send(self) -> None:
        """Release queued messages while the window has room.

        Without a reliability micro-protocol nothing is ever 'in flight'
        (fire and forget), so the queue drains immediately.  The window
        is read once: transmitting a segment acknowledges nothing.
        """
        shared = self.composite.shared
        queue: deque = shared["tx_queue"]
        if not queue:
            return
        in_flight = shared.get("in_flight", ())
        window = shared.get(CWND_KEY, math.inf)
        while queue and len(in_flight) < window:
            msg = queue.popleft()
            self.stats_sent += 1
            # TxSegment: reliability registers (order<100), the channel's
            # glue handler transmits (order 100).
            self.composite.bus.compiled["TxSegment"](msg)

    # -- receive path -------------------------------------------------------------

    def _on_rx_deliver(self, msg: Message, fields: Optional[dict] = None) -> None:
        """Terminal stage of the receive pipeline."""
        shared = self.composite.shared
        waiters: deque = shared["rx_waiters"]
        while waiters:
            waiter = waiters.popleft()
            if waiter._value is not _PENDING:  # abandoned request
                continue
            self.stats_delivered += 1
            self.composite.bus.compiled["AppDelivered"](msg)
            waiter.succeed(msg)
            return
        buffer: deque = shared["rx_buffer"]
        buffer.append(msg)
        if len(buffer) > self.rx_capacity:
            buffer.popleft()
            self.stats_rx_dropped += 1

    # -- application-side helpers (called via the data channel) ----------------------

    def take_nowait(self) -> tuple[bool, Any]:
        """Non-blocking take from the receive buffer."""
        buffer: deque = self.composite.shared["rx_buffer"]
        if buffer:
            msg = buffer.popleft()
            self.stats_delivered += 1
            self.composite.bus.compiled["AppDelivered"](msg)
            return True, msg
        return False, None

    def take_latest_nowait(self) -> tuple[bool, Any]:
        """Take the *newest* message, discarding anything staler.

        The natural receive primitive for asynchronous iterations: only
        the freshest boundary plane matters; older ones are obsolete.
        """
        buffer: deque = self.composite.shared["rx_buffer"]
        if not buffer:
            return False, None
        while len(buffer) > 1:
            buffer.popleft()
            self.stats_rx_dropped += 1
        msg = buffer.popleft()
        self.stats_delivered += 1
        self.composite.bus.compiled["AppDelivered"](msg)
        return True, msg

    def pending_rx(self) -> int:
        return len(self.composite.shared["rx_buffer"])

    def pending_tx(self) -> int:
        return len(self.composite.shared["tx_queue"])
