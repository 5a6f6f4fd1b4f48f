"""Reliability micro-protocol: acknowledgement, retransmission and
in-sequence delivery.

Table I stacks reliability on every cell except the inter-cluster
asynchronous ones, where "message losses recovery time may be comparable
with updating time, thus those messages can become obsolete.  Hence,
reliability micro protocols are not needed in this case."  The paper's
reliable cells stack "some reliability and order micro-protocols"; here
the two are one micro-protocol, because both keep the same receive
watermark over the same sequence numbers and every reliable cell is an
ordered one.

Sender side
    every outgoing DATA segment (``TxSegment``) is registered in the
    ``in_flight`` set and given a retransmission deadline, its transmit
    time plus the RTO (the congestion controller's RFC 6298 estimate, or
    a local default).  A segment still unacknowledged at its deadline
    gets a ``RetransmitCheck``: it is retransmitted, ``SegmentTimeout``
    is raised for the congestion controller, and it gets a new deadline
    with the backed-off RTO.  On acknowledgement the RTT sample is
    extracted from the echoed timestamp and ``AckReceived(seq, rtt)``
    raised.

    The deadlines share one timer per session, as TCP's one timer per
    connection (RFC 6298 section 5) does, each segment keeping its own
    deadline: they wait in a heap (earliest first, then transmit order)
    and one timer is armed at the earliest.  An ACK drops its segment
    and cancels nothing; deadlines of acknowledged segments are pruned
    from the head as ACKs arrive.  When the timer fires, every segment
    due then is checked in transmit order, and the timer re-arms at the
    next deadline (:meth:`~repro.cactus.events.EventBus.call_at`).

Receiver side
    every DATA segment is acknowledged (including duplicates — the ack
    may have been the casualty) and deduplicated by sequence number.
    Fresh segments go on to ``RxDeliver`` in sequence order: the state
    is a low watermark (everything below it was delivered) plus the
    segments held above it, waiting for the gap below them to fill —
    the size of the reorder window, not of the session.  Sequence
    numbers are buffer management's transmission order, which is FIFO
    in application send order, so in-sequence delivery reconstructs the
    sender's ``P2P_Send`` order even when retransmissions arrive late.

    A segment the sender gives up on (``SegmentAbandoned``) never
    arrives, so the watermark must not wait for it.  Every DATA header
    carries the sender's lowest unacknowledged sequence number
    (``low``), as the control channel's frames do: nothing below it
    will be sent again, so the receiver moves its watermark up to it and
    delivers, in order, what it held below.  A header field costs no
    wire bytes (a header's size is fixed, whatever its fields).  Nothing
    may be sent after the give-up, so the sender also says it at once:
    one header-only ``LOW`` frame carrying the new ``low`` (``RxLow`` at
    the receiver).  If that frame is lost, the next DATA header still
    carries it.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Optional

from ...cactus.events import Timer
from ...cactus.messages import Message
from ...cactus.microprotocol import MicroProtocol

__all__ = ["Reliability"]


class Reliability(MicroProtocol):
    name = "reliability"

    #: Give-up threshold; a segment retransmitted this many times is
    #: abandoned (the peer is presumed dead — fault tolerance's problem).
    MAX_RETRANSMITS = 50
    #: Retransmission timeout while no congestion controller publishes
    #: an estimate (``shared["rto"]``).
    DEFAULT_RTO = 1.0

    def __init__(self) -> None:
        super().__init__()
        self._unacked: dict[int, Message] = {}
        self._retransmit_counts: dict[int, int] = {}
        # (deadline, transmit order, seq) per transmission, earliest first,
        # and the session's one retransmission timer, armed at _timer_at.
        self._deadlines: list[tuple[float, int, int]] = []
        self._tx_order = itertools.count()
        self._timer: Optional[Timer] = None
        self._timer_at = math.inf
        # Everything below _tx_low is acknowledged or given up on;
        # _tx_next is one past the highest sequence number sent.
        self._tx_low = 0
        self._tx_next = 0
        # Receive watermark and the fresh segments held above it.
        self._rx_low = 0
        self._rx_above: dict[int, tuple[Message, dict]] = {}
        self.stats_retransmits = 0
        self.stats_abandoned = 0
        self.stats_dup_rx = 0
        self.stats_acks_tx = 0

    def on_init(self) -> None:
        shared = self.composite.shared
        shared["in_flight"] = set()
        self.bind("TxSegment", self._on_tx_segment, order=10)
        self.bind("RxData", self._on_rx_data, order=10)
        self.bind("RxAck", self._on_rx_ack, order=10)
        self.bind("RetransmitCheck", self._on_retransmit_check, order=10)
        self.bind("RxLow", self._on_rx_low, order=10)

    def on_remove(self) -> None:
        # Reconfiguration away from reliable mode forgets in-flight state;
        # messages already queued are delivered unreliably from here on.
        # Held segments are flushed in sequence order (past the gap that
        # held them) rather than swallowed.
        held = self._rx_above
        for seq in sorted(held):
            self.composite.bus.compiled["RxDeliver"](*held[seq])
        held.clear()
        self.composite.shared.pop("in_flight", None)
        self._unacked.clear()
        self._deadlines.clear()
        if self._timer is not None:
            self._timer.cancel()
        self._timer, self._timer_at = None, math.inf

    # -- sender side -------------------------------------------------------------

    def _on_tx_segment(self, msg: Message) -> None:
        meta = msg.meta
        seq = meta["seq"]
        if seq not in self._unacked:  # first transmission
            self._unacked[seq] = msg
            self._retransmit_counts[seq] = 0
            self.composite.shared["in_flight"].add(seq)
            if seq >= self._tx_next:
                self._tx_next = seq + 1
        now = meta["tx_time"] = self.composite.sim._now
        # What the DATA header tells the receiver (_on_rx_data).
        meta["low"] = self._tx_low
        deadline = now + self.composite.shared.get("rto", self.DEFAULT_RTO)
        heappush(self._deadlines, (deadline, next(self._tx_order), seq))
        if deadline < self._timer_at:
            self._arm(deadline)

    def _arm(self, when: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self.composite.bus.call_at(when, self._on_timer)
        self._timer_at = when

    def _on_timer(self) -> None:
        """Check every segment due now, in transmit order; re-arm."""
        self._timer = None
        self._timer_at = -math.inf  # no re-arm while retransmitting
        deadlines = self._deadlines
        now = self.composite.sim._now
        while deadlines and deadlines[0][0] <= now:
            seq = heappop(deadlines)[2]
            if seq in self._unacked:
                self.composite.bus.compiled["RetransmitCheck"](seq)
        self._timer_at = math.inf
        self._prune()
        if deadlines:
            self._arm(deadlines[0][0])

    def _prune(self) -> None:
        deadlines = self._deadlines
        while deadlines and deadlines[0][2] not in self._unacked:
            heappop(deadlines)

    def _on_retransmit_check(self, seq: int) -> None:
        if seq not in self._unacked:
            return  # acked in the meantime
        count = self._retransmit_counts[seq] + 1
        self._retransmit_counts[seq] = count
        compiled = self.composite.bus.compiled
        if count > self.MAX_RETRANSMITS:
            self.stats_abandoned += 1
            self._forget(seq)
            compiled["SegmentAbandoned"](seq)
            # Nothing may follow to carry the new ``low``: say it now.
            compiled["SendControl"]("LOW", {"low": self._tx_low})
            return
        self.stats_retransmits += 1
        # Tell the congestion controller first (window collapse), then
        # put the segment back on the wire.
        compiled["SegmentTimeout"](seq)
        msg = self._unacked[seq]
        msg.meta["is_retransmit"] = True
        compiled["TxSegment"](msg)

    def _on_rx_ack(self, seq: int, echo_ts: Optional[float]) -> None:
        if seq not in self._unacked:
            return  # stale ack (already acked, or from before a reconfig)
        # Karn's algorithm: only un-retransmitted segments give RTT samples.
        rtt = None
        if echo_ts is not None and self._retransmit_counts[seq] == 0:
            rtt = self.composite.sim._now - echo_ts
        self._forget(seq)
        compiled = self.composite.bus.compiled
        compiled["AckReceived"](seq, rtt)
        # The one send pump per ACK: the window (if a controller keeps
        # one) has taken the ACK in, and the segment left in_flight.
        compiled["TrySend"]()

    def _forget(self, seq: int) -> None:
        """``seq`` is acknowledged or given up on: it leaves every record,
        and the lowest unacknowledged number moves past it."""
        unacked = self._unacked
        del unacked[seq]
        del self._retransmit_counts[seq]
        self.composite.shared["in_flight"].discard(seq)
        if seq == self._tx_low:
            low, end = seq + 1, self._tx_next
            while low < end and low not in unacked:
                low += 1
            self._tx_low = low
        self._prune()

    # -- receiver side -----------------------------------------------------------

    def _on_rx_data(self, msg: Message, fields: dict) -> None:
        seq = fields["seq"]
        compiled = self.composite.bus.compiled
        # Always ack — a duplicate usually means our previous ack was lost.
        self.stats_acks_tx += 1
        compiled["SendControl"]("ACK", {"seq": seq, "echo_ts": fields["ts"]})
        if fields.get("low", 0) > self._rx_low:
            self._pass_abandoned(fields["low"])
        low, held = self._rx_low, self._rx_above
        if seq != low:
            if seq < low or seq in held:
                self.stats_dup_rx += 1
            else:
                held[seq] = (msg, fields)
            return
        while True:
            low += 1
            self._rx_low = low
            compiled["RxDeliver"](msg, fields)
            if low not in held:
                return
            msg, fields = held.pop(low)

    def _on_rx_low(self, floor: int) -> None:
        """A ``LOW`` frame: the sender gave a segment up."""
        if floor > self._rx_low:
            self._pass_abandoned(floor)

    def _pass_abandoned(self, floor: int) -> None:
        """Move the watermark up to the sender's lowest unacknowledged
        number ``floor``, delivering in order what is held on the way.

        The sender has every segment below ``floor`` acknowledged or
        abandoned (``MAX_RETRANSMITS``), so none of them comes again: a
        gap below it is a segment given up on, and waiting for it would
        hold everything above it for the session's life.
        """
        held = self._rx_above
        compiled = self.composite.bus.compiled
        for seq in sorted(seq for seq in held if seq < floor):
            compiled["RxDeliver"](*held.pop(seq))
        low = floor
        while low in held:
            compiled["RxDeliver"](*held.pop(low))
            low += 1
        self._rx_low = low

    @property
    def unacked_count(self) -> int:
        return len(self._unacked)
