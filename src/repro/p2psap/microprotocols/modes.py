"""Synchronous and asynchronous communication-mode micro-protocols.

"CTP supports only asynchronous communication. ... we have implemented
two micro-protocols corresponding to two communication modes:
synchronous and asynchronous.  These micro-protocols introduce new
events, UserSend and UserReceive ... In response to messages sent from
application, these micro-protocols may return the control to application
immediately after message sent (asynchronous send) or wait for an
acknowledgement indicating that message was received by receiver side
application (synchronous send).  Likely, in response to receive call
from application, they may return the control to application immediately
with or without message (asynchronous receive), or wait until message
arrives (synchronous receive)."

Implementation notes
--------------------
Every application send carries a *completion event* in
``msg.meta["completion"]``; the socket layer yields it.  The mode
micro-protocol decides when it fires:

- :class:`AsynchronousMode` fires it immediately (control returns after
  the message is queued);
- :class:`SynchronousMode` fires it when an application-level
  acknowledgement (APPACK) comes back — sent by the *receiver's* mode
  micro-protocol at the moment the receiving application actually takes
  the message (the ``AppDelivered`` event), which is strictly stronger
  than transport-level acknowledgement.  When the application takes
  the message inside the DATA segment's receive chain, the data
  channel sends that APPACK with the segment's transport ACK in one
  ``ACK+APPACK`` frame; this micro-protocol only sees ``RxAppAck``.

A synchronous send that never sees its APPACK is released after
``appack_timeout`` (``AppAckTimeout``).  Those deadlines share one timer
per session: they wait in send order (a fixed timeout makes that their
deadline order), one timer is armed at the earliest, an APPACK drops its
message and cancels nothing, and when the timer fires every message due
then times out in send order before it re-arms at the next deadline.

Receive requests are kernel events in ``rx_waiters``; blocked receives
are fulfilled by buffer management on delivery.  Asynchronous receive
never blocks: it is served from the receive buffer (possibly empty).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ...cactus.events import Timer
from ...cactus.messages import Message
from ...cactus.microprotocol import MicroProtocol
from ...simnet.kernel import _PENDING
from ..context import CommMode

__all__ = ["SynchronousMode", "AsynchronousMode", "make_mode"]


class _ModeBase(MicroProtocol):
    """Shared plumbing for the two communication modes."""

    mode: CommMode

    def on_init(self) -> None:
        self.composite.shared["comm_mode"] = self.mode
        # Order 10: modes see UserSend before buffer management (order 50).
        self.bind("UserSend", self._on_user_send, order=10)
        self.bind("UserReceive", self._on_user_receive, order=10)

    def on_remove(self) -> None:
        if self.composite is not None:
            self.composite.shared.pop("comm_mode", None)

    def _on_user_send(self, msg: Message) -> None:
        raise NotImplementedError

    def _on_user_receive(self, request) -> None:
        raise NotImplementedError


class AsynchronousMode(_ModeBase):
    name = "mode-async"
    mode = CommMode.ASYNCHRONOUS

    def _on_user_send(self, msg: Message) -> None:
        """Asynchronous send: control returns to the application at once."""
        completion = msg.meta.get("completion")
        if completion is not None and completion._value is _PENDING:
            completion.succeed(msg.message_id)

    def _on_user_receive(self, request) -> None:
        """Asynchronous receive: immediately, with or without a message."""
        buffer: deque = self.composite.shared["rx_buffer"]
        if buffer:
            msg = buffer.popleft()
            self.composite.bus.compiled["AppDelivered"](msg)
            request.succeed(msg)
        else:
            request.succeed(None)


class SynchronousMode(_ModeBase):
    name = "mode-sync"
    mode = CommMode.SYNCHRONOUS

    def __init__(self, appack_timeout: float = 30.0) -> None:
        super().__init__()
        if appack_timeout <= 0:
            raise ValueError("appack_timeout must be positive")
        self.appack_timeout = appack_timeout
        # message_id -> completion event awaiting APPACK; (deadline,
        # message_id) in send order; the session's one AppAckTimeout timer.
        self._pending_appack: dict[int, object] = {}
        self._deadlines: deque[tuple[float, int]] = deque()
        self._timer: Optional[Timer] = None
        self.stats_appacks_tx = 0
        self.stats_appacks_rx = 0
        self.stats_appack_timeouts = 0

    def on_init(self) -> None:
        super().on_init()
        self.bind("AppDelivered", self._on_app_delivered, order=10)
        self.bind("RxAppAck", self._on_rx_appack, order=10)
        self.bind("AppAckTimeout", self._on_appack_timeout, order=10)

    def on_remove(self) -> None:
        # A reconfiguration sync→async must not leave senders blocked
        # forever: release every pending synchronous send.  This is the
        # behavioural hinge of the hybrid scheme ("the same P2P_Send ...
        # can be first synchronous and then become asynchronous").
        for completion in self._pending_appack.values():
            if completion._value is _PENDING:
                completion.succeed(None)
        self._pending_appack.clear()
        self._deadlines.clear()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        super().on_remove()

    # -- sender side ---------------------------------------------------------

    def _on_user_send(self, msg: Message) -> None:
        """Synchronous send: completion deferred until APPACK."""
        completion = msg.meta.get("completion")
        if completion is not None:
            msg.meta["needs_appack"] = True
            # Deadlock safety valve for misconfigured (sync + unreliable)
            # channels on lossy paths: never block the application forever.
            deadline = self.composite.sim._now + self.appack_timeout
            self._pending_appack[msg.message_id] = completion
            self._deadlines.append((deadline, msg.message_id))
            if self._timer is None:
                self._arm(deadline)

    def _arm(self, when: float) -> None:
        self._timer = self.composite.bus.call_at(when, self._on_timer)

    def _on_timer(self) -> None:
        """Time out every send due now, in send order; re-arm."""
        deadlines = self._deadlines
        now = self.composite.sim._now
        while deadlines and deadlines[0][0] <= now:
            msg_id = deadlines.popleft()[1]
            if msg_id in self._pending_appack:
                self.composite.bus.compiled["AppAckTimeout"](msg_id)
        self._timer = None  # only now: no send arms a timer mid-loop
        self._prune()
        if deadlines:
            self._arm(deadlines[0][0])

    def _prune(self) -> None:
        deadlines = self._deadlines
        while deadlines and deadlines[0][1] not in self._pending_appack:
            deadlines.popleft()

    def _on_rx_appack(self, msg_id: int) -> None:
        completion = self._pending_appack.pop(msg_id, None)
        if completion is None:
            return
        self._prune()
        if completion._value is _PENDING:
            self.stats_appacks_rx += 1
            completion.succeed(msg_id)

    def _on_appack_timeout(self, msg_id: int) -> None:
        completion = self._pending_appack.pop(msg_id, None)
        if completion is not None and completion._value is _PENDING:
            self.stats_appack_timeouts += 1
            completion.succeed(None)

    # -- receiver side -----------------------------------------------------------

    def _on_user_receive(self, request) -> None:
        """Synchronous receive: wait until a message arrives."""
        buffer: deque = self.composite.shared["rx_buffer"]
        if buffer:
            msg = buffer.popleft()
            self.composite.bus.compiled["AppDelivered"](msg)
            request.succeed(msg)
        else:
            self.composite.shared["rx_waiters"].append(request)

    def _on_app_delivered(self, msg: Message) -> None:
        """The receiving application took the message: acknowledge to the
        sending application."""
        if msg.meta.get("needs_appack_rx"):
            self.stats_appacks_tx += 1
            self.composite.bus.compiled["SendControl"](
                "APPACK", {"msg_id": msg.meta["src_message_id"]})


def make_mode(mode: CommMode) -> _ModeBase:
    """The mode micro-protocol for ``mode`` (the data channel stacks it)."""
    if mode is CommMode.SYNCHRONOUS:
        return SynchronousMode()
    if mode is CommMode.ASYNCHRONOUS:
        return AsynchronousMode()
    raise ValueError(f"unknown communication mode {mode!r}")
