"""Congestion-control micro-protocol base class.

Congestion control in the data channel is window-based: the
buffer-management micro-protocol may have at most ``cwnd`` unacked
segments in flight.  Controllers adjust ``cwnd`` (stored in the
composite's shared state so buffer management reads it without coupling
to a concrete controller) in response to two bus events raised by the
reliability micro-protocol:

``AckReceived(seq, rtt)``
    a segment was acknowledged, with a round-trip sample;
``SegmentTimeout(seq)``
    a retransmission timer expired.

There is no duplicate-ACK event.  Reliability acknowledges every
segment by its own sequence number, not cumulatively, and drops an ACK
for a segment no longer in flight, so the duplicate ACKs that trigger
TCP's fast retransmit and fast recovery (RFC 6582) never arise here: a
loss is seen by its retransmission timeout only.

After a timeout the controller raises ``TrySend`` itself, since the new
window may let queued segments out.  After an ACK it does not:
reliability raises ``TrySend`` right after ``AckReceived``, with the
window updated and the segment out of flight, and a second pump in
between would find nothing changed.  One send pump per ACK.

Each concrete controller (New-Reno, H-TCP) implements its state
machine; unit tests drive them directly through :meth:`on_ack` /
:meth:`on_timeout` and assert the window traces, independent of any
stack.
"""

from __future__ import annotations

from typing import Optional

from ....cactus.microprotocol import MicroProtocol

__all__ = ["CongestionControl", "CWND_KEY", "SSTHRESH_KEY"]

CWND_KEY = "cwnd"
SSTHRESH_KEY = "ssthresh"

#: Upper bound on the window, in segments.  Generous enough never to be
#: the binding constraint in the paper's scenarios.
MAX_WINDOW = 1 << 20


class CongestionControl(MicroProtocol):
    """Shared machinery: window accounting, RTT estimation (RFC 6298)."""

    name = "congestion"

    INITIAL_WINDOW = 2.0
    MIN_WINDOW = 1.0

    def __init__(self) -> None:
        super().__init__()
        self.cwnd = float(self.INITIAL_WINDOW)
        self.ssthresh = float(MAX_WINDOW)
        # RFC 6298 RTT estimation state.
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.rto = 1.0
        self.stats_acks = 0
        self.stats_timeouts = 0

    # -- lifecycle -----------------------------------------------------------

    def on_init(self) -> None:
        self.bind("AckReceived", self._handle_ack)
        self.bind("SegmentTimeout", self._handle_timeout)
        self._publish()

    def on_remove(self) -> None:
        # Leave a clean slate: with no controller, the channel is
        # unwindowed (buffer management treats a missing cwnd as inf).
        if self.composite is not None:
            self.composite.shared.pop(CWND_KEY, None)
            self.composite.shared.pop(SSTHRESH_KEY, None)
            self.composite.shared.pop("rto", None)

    def _publish(self) -> None:
        if self.composite is not None:
            self.composite.shared[CWND_KEY] = self.cwnd
            self.composite.shared[SSTHRESH_KEY] = self.ssthresh
            self.composite.shared["rto"] = self.rto

    # -- bus handlers -----------------------------------------------------------

    def _handle_ack(self, seq: int, rtt: Optional[float] = None) -> None:
        # No pump here: reliability raises TrySend right after
        # AckReceived, once per ACK (see the module docstring).
        self.on_ack(rtt)
        self._publish()

    def _handle_timeout(self, seq: int) -> None:
        self.on_timeout()
        self._publish()
        self._pump()

    def _pump(self) -> None:
        # A window change may allow more segments out.
        if self.composite is not None:
            self.composite.bus.raise_event("TrySend")

    # -- RTT estimation (shared by all controllers) -------------------------------

    def observe_rtt(self, rtt: float) -> None:
        """RFC 6298 SRTT/RTTVAR/RTO update."""
        if rtt <= 0:
            return
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt
        self.rto = max(0.2, self.srtt + 4.0 * self.rttvar)

    # -- controller state machine hooks --------------------------------------------

    def on_ack(self, rtt: Optional[float] = None) -> None:
        """New-data acknowledgement.  Subclasses implement growth."""
        raise NotImplementedError

    def on_timeout(self) -> None:
        """Retransmission timeout.  Subclasses implement the backoff."""
        raise NotImplementedError
